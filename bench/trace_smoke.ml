(* trace-smoke: run a tiny traced workload and pin the observability output
   shapes under `dune runtest`:

   - the Chrome trace-event JSON parses, carries spans for every lifecycle
     stage (execute, prepare, commit, persist, deferred-verify, audit) and
     gauge counter tracks;
   - causal propagation: remote node-side spans (prepare) and the
     persister's persist span carry the originating client trace_id and a
     non-zero parent_span_id;
   - the metrics snapshot passes the same schema check the BENCH json uses
     (nonzero counters, sampled gauges, populated histograms). *)

module Cluster = Glassdb.Cluster
module Client = Glassdb.Client
module Auditor = Glassdb.Auditor

let fail msg =
  prerr_endline ("trace-smoke: FAILED: " ^ msg);
  exit 1

let run_workload () =
  Obs.Trace.enable ();
  Obs.Metrics.reset ();
  Obs.Attr.reset ();
  Obs.Attr.enable ();
  Sim.run (fun () ->
      let cluster = Cluster.create (Glassdb.Config.make ~shards:2 ()) in
      Cluster.start cluster;
      let sampler = Obs.Sampler.start ~interval:0.05 () in
      let client = Client.create cluster ~id:1 ~sk:"smoke-key" in
      let auditor = Auditor.create cluster ~id:0 in
      Auditor.register_client auditor ~client:1 ~pk:"smoke-key";
      for i = 1 to 60 do
        let key = Printf.sprintf "key-%02d" (i mod 20) in
        match
          Client.execute client (fun t -> Client.put t key (string_of_int i))
        with
        | Ok (_, promises) -> Client.queue_promises client promises
        | Error _ -> ()
      done;
      Sim.sleep 0.3;
      ignore (Client.flush_verifications client ~force:true ());
      ignore (Auditor.audit_all auditor);
      Obs.Sampler.stop sampler;
      Cluster.stop cluster)

let () =
  run_workload ();
  let open Bench1 in
  let open Obs.Export in
  (* --- trace shape --- *)
  let trace =
    match parse (Obs.Export.trace_json ()) with
    | exception Bad m -> fail ("trace JSON malformed: " ^ m)
    | j -> j
  in
  let events =
    match field "traceEvents" trace with
    | Some (Arr (_ :: _ as evs)) -> evs
    | _ -> fail "traceEvents must be a non-empty array"
  in
  List.iter
    (fun ev ->
      (match field "name" ev with Some (Str _) -> () | _ -> fail "event.name");
      (match field "ph" ev with
       | Some (Str ("X" | "i" | "C")) -> ()
       | _ -> fail "event.ph");
      (match field "ts" ev with Some (Num _) -> () | _ -> fail "event.ts");
      (match field "pid" ev with Some (Num _) -> () | _ -> fail "event.pid");
      (match field "tid" ev with Some (Num _) -> () | _ -> fail "event.tid");
      match field "ph" ev with
      | Some (Str "X") ->
        (match field "dur" ev with
         | Some (Num d) when d >= 0. -> ()
         | _ -> fail "complete event without non-negative dur")
      | _ -> ())
    events;
  let name_of ev = match field "name" ev with Some (Str s) -> s | _ -> "" in
  let ph_of ev = match field "ph" ev with Some (Str s) -> s | _ -> "" in
  List.iter
    (fun stage ->
      if
        not
          (List.exists
             (fun ev -> ph_of ev = "X" && name_of ev = stage)
             events)
      then fail (Printf.sprintf "no %S span in trace" stage))
    [ "execute"; "prepare"; "commit"; "persist"; "deferred-verify"; "audit" ];
  if not (List.exists (fun ev -> ph_of ev = "C") events) then
    fail "no gauge counter events in trace";
  (* --- causal linkage --- *)
  let arg ev k =
    match field "args" ev with Some a -> field k a | None -> None
  in
  let cat_of ev = match field "cat" ev with Some (Str s) -> s | _ -> "" in
  let spans ~cat name =
    List.filter
      (fun ev -> ph_of ev = "X" && name_of ev = name && cat_of ev = cat)
      events
  in
  let client_traces =
    List.filter_map (fun ev -> arg ev "trace_id") (spans ~cat:"client" "execute")
  in
  if client_traces = [] then fail "no execute spans with a trace_id";
  let linked ~cat name =
    List.exists
      (fun ev ->
        match (arg ev "trace_id", arg ev "parent_span_id") with
        | Some tid, Some (Num p) when p > 0. -> List.mem tid client_traces
        | _ -> false)
      (spans ~cat name)
  in
  (* Remote server-side span and the persister's span both nest under an
     originating client execute span: the "node" category only ever comes
     from the server side of an RPC or the persister process. *)
  if not (linked ~cat:"node" "prepare") then
    fail "no remote prepare span linked to a client trace";
  if not (linked ~cat:"node" "persist") then
    fail "no persist span linked to a client trace";
  (match field "dropped_events" trace with
   | Some (Num 0.) -> ()
   | _ -> fail "dropped_events must be 0 for this tiny run");
  (* --- metrics shape --- *)
  (match parse (Obs.Export.metrics_json ()) with
   | exception Bad m -> fail ("metrics JSON malformed: " ^ m)
   | j ->
     (try validate_metrics j with Bad m -> fail ("metrics schema: " ^ m)));
  Printf.printf
    "trace-smoke: %d trace events, cross-node spans linked, trace + metrics \
     schema OK\n"
    (List.length events)
