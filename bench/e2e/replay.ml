(* Traced replay: the same seeded inputs as the end-to-end round, driven
   Sim-free against a fresh cluster, with every call into a layer timed
   from here.

   Each timed call records wall time, a [Work] counter delta and a
   [Gc.minor_words] delta, and becomes one span whose parent is the op it
   served.  Spans stay in memory and are written as Chrome trace JSON at
   the end.  The replay mirrors the end-to-end round's cadence, so
   per-call work matches: a persist cycle runs after the round's mean
   writes per persister wake-up, promises fall due after the ops the round
   completed in [verify_delay], and auditors catch up as often as they did
   there. *)

open Glassdb_util
open Glassdb
module Kv = Txnkit.Kv
module W = Workload

let layers =
  [| "client.sign"; "client.verify"; "node.prepare"; "node.commit";
     "node.read"; "node.persist"; "node.prove"; "auditor" |]

let sign = 0
let verify = 1
let prepare = 2
let commit = 3
let read = 4
let persist = 5
let prove = 6
let audit = 7

(* Layers that touch the node store, for the store counters. *)
let store_layers = [ read; persist; prove; audit ]

type agg = {
  mutable calls : int;
  mutable wall : float;
  mutable work : Work.counters;
  mutable minor : float;
}

type span = { layer : int; op : int; t0 : float; t1 : float }

type recorder = {
  aggs : agg array;
  mutable spans : span list;
  mutable op : int;  (** id of the op the next calls serve *)
}

let recorder () =
  { aggs =
      Array.map (fun _ -> { calls = 0; wall = 0.; work = Work.zero; minor = 0. }) layers;
    spans = [];
    op = 0 }

let now = Benchkit.Wallclock.now_s

let timed r layer f =
  let w0 = Work.snapshot () in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  let m1 = Gc.minor_words () in
  let w1 = Work.snapshot () in
  let a = r.aggs.(layer) in
  a.calls <- a.calls + 1;
  a.wall <- a.wall +. (t1 -. t0);
  a.work <- Work.add a.work (Work.sub w1 w0);
  a.minor <- a.minor +. (m1 -. m0);
  r.spans <- { layer; op = r.op; t0; t1 } :: r.spans;
  v

(* Chrome trace-event JSON: one complete event per span, on one track per
   layer, with the op id as the shared parent.  Times are microseconds
   from the first span, to the nanosecond. *)
let write_trace r ~path =
  let origin =
    List.fold_left (fun a s -> Float.min a s.t0) Float.infinity r.spans
  in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\": %S, \"cat\": \"replay\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"op\": %d}}"
        layers.(s.layer) ((s.t0 -. origin) *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.layer s.op)
    (List.rev r.spans);
  Buffer.add_string b "]}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)

type result = {
  rec_ : recorder;  (** every timed call, closing gate included *)
  window_aggs : agg array;  (** the calls made for the timed-window ops *)
  window_wall : float;  (** replay wall seconds over the timed-window ops *)
  window_span_wall : float;  (** of which inside timed calls *)
  attribution : (string * Work.counters) list;  (** over the timed-window ops *)
}

let run (inp : W.inputs) (e2e : Round.result) =
  let spec = inp.W.spec in
  let cl = Cluster.create (Config.make ~shards:W.shards ()) in
  let nodes = Cluster.nodes cl in
  let shard_of k = Cluster.shard_of_key cl k in
  let r = recorder () in
  let clock = ref 0. in
  let interval = Config.default.Config.persist_interval in
  (* Client state: id 0 is the loader, 1..clients the workload clients. *)
  let nclients = spec.W.clients + 1 in
  let seqs = Array.make nclients 0 in
  let digests = Array.init nclients (fun _ -> Array.make W.shards Ledger.genesis) in
  (* Deferred-verification queue per client: (op id at which the promise
     falls due, promise).  [verify_delay] of virtual time becomes the
     number of ops the round completed in that time. *)
  let pending = Array.make nclients [] in
  let op_id = ref 0 in
  let delay =
    if e2e.Round.sim_s <= 0. then 0
    else
      int_of_float
        (Config.default.Config.verify_delay
        *. float_of_int (spec.W.clients * spec.W.ops_per_client)
        /. e2e.Round.sim_s)
  in
  let last_writes = Array.make nclients [] in
  let fail fmt = Round.incorrect fmt in
  (* Mirrors [Client.execute]: reads, one signature over the whole
     read/write set, then prepare and commit on every shard touched. *)
  let txn ~client ~writes ~reads =
    let read_versions =
      List.map
        (fun k ->
          match timed r read (fun () -> Node.get nodes.(shard_of k) k) with
          | Some (_, ver) -> (k, ver)
          | None -> (k, -1))
        reads
    in
    seqs.(client) <- seqs.(client) + 1;
    let tid = Kv.txn_id ~client ~seq:seqs.(client) in
    let rw = { Kv.reads = read_versions; writes } in
    let stxn = timed r sign (fun () -> Kv.sign ~sk:(Round.sk client) ~tid ~client rw) in
    let per_shard = Hashtbl.create 4 in
    List.iter
      (fun (k, ver) ->
        let s = shard_of k in
        let rs, ws = Option.value ~default:([], []) (Hashtbl.find_opt per_shard s) in
        Hashtbl.replace per_shard s ((k, ver) :: rs, ws))
      read_versions;
    List.iter
      (fun (k, v) ->
        let s = shard_of k in
        let rs, ws = Option.value ~default:([], []) (Hashtbl.find_opt per_shard s) in
        Hashtbl.replace per_shard s (rs, (k, v) :: ws))
      writes;
    let per_shard =
      Det.sorted_bindings ~cmp:Int.compare per_shard
      |> List.map (fun (s, (rs, ws)) ->
             (s, { Kv.reads = List.rev rs; writes = List.rev ws }))
    in
    let ok =
      List.for_all
        (fun (s, rw) ->
          match timed r prepare (fun () -> Node.prepare nodes.(s) ~rw stxn) with
          | Txnkit.Occ.Ok -> true
          | Txnkit.Occ.Conflict _ -> false)
        per_shard
    in
    if not ok then begin
      List.iter (fun (s, _) -> Node.abort nodes.(s) tid) per_shard;
      None
    end
    else
      Some
        (List.concat_map
           (fun (s, _) -> timed r commit (fun () -> Node.commit nodes.(s) tid))
           per_shard)
  in
  let commit_or_fail ~client ~writes ~reads =
    match txn ~client ~writes ~reads with
    | Some promises -> promises
    | None -> fail "replay: a sequential transaction conflicted"
  in
  let advance client s ~from ~proof d =
    if not (Ledger.verify_append_only ~old_digest:from ~new_digest:d proof) then false
    else begin
      if d.Ledger.block_no > digests.(client).(s).Ledger.block_no then
        digests.(client).(s) <- d;
      true
    end
  in
  let verified_read client k ~block =
    let s = shard_of k in
    let nd = nodes.(s) in
    let from = digests.(client).(s) in
    let vr =
      timed r prove (fun () ->
          match block with
          | None -> Node.get_verified_latest nd k ~from
          | Some block -> Node.get_verified_at nd k ~block ~from)
    in
    match vr with
    | None -> fail "replay: no verified read for %s" k
    | Some vr ->
      let ok =
        timed r verify (fun () ->
            let d = vr.Node.vr_digest in
            advance client s ~from ~proof:vr.Node.vr_append d
            &&
            match block with
            | None -> Ledger.verify_current ~digest:d ~key:k ~value:vr.Node.vr_value vr.Node.vr_proof
            | Some _ -> Ledger.verify_inclusion ~digest:d ~key:k ~value:vr.Node.vr_value vr.Node.vr_proof)
      in
      if not ok then fail "replay: a proof check failed"
  in
  (* Mirrors [Client.flush_verifications]: the due promises, one
     get-proofs call per shard, promises beyond the returned digest
     requeued. *)
  let flush ?(force = false) client =
    let due, not_due =
      List.partition (fun (at, _) -> force || at <= !op_id) pending.(client)
    in
    pending.(client) <- not_due;
    let by_shard = Hashtbl.create 4 in
    List.iter
      (fun ((_, p) as e) ->
        let s = p.Node.pr_shard in
        Hashtbl.replace by_shard s
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_shard s)))
      due;
    List.iter
      (fun (s, ps) ->
        let from = digests.(client).(s) in
        let proofs, appendp, d =
          timed r prove (fun () -> Node.get_proofs nodes.(s) (List.map snd ps) ~from)
        in
        let ready, later =
          List.partition (fun (_, p) -> p.Node.pr_block <= d.Ledger.block_no) ps
        in
        pending.(client) <- later @ pending.(client);
        if ready <> [] then begin
          let ok =
            timed r verify (fun () ->
                advance client s ~from ~proof:appendp d
                && List.for_all (fun bp -> Ledger.verify_inclusion_batch ~digest:d bp) proofs
                && List.for_all
                     (fun (_, p) ->
                       List.exists
                         (fun bp ->
                           bp.Ledger.bp_block = p.Node.pr_block
                           &&
                           match Ledger.batch_proof_value bp p.Node.pr_key with
                           | Some (Some v) -> String.equal v p.Node.pr_value
                           | Some None | None -> false)
                         proofs)
                     ready)
          in
          if not ok then fail "replay: a deferred verification failed"
        end)
      (Det.sorted_bindings ~cmp:Int.compare by_shard)
  in
  let persist_cycle () =
    clock := !clock +. interval;
    Array.iter
      (fun nd ->
        for _ = 1 to Node.pending_blocks nd do
          ignore (timed r persist (fun () -> Node.persist_step nd ~now:!clock))
        done)
      nodes
  in
  let register a =
    for c = 0 to nclients - 1 do
      Auditor.register_client a ~client:c ~pk:(Round.sk c)
    done
  in
  let audit_round a =
    for shard = 0 to W.shards - 1 do
      let rep = ref None in
      timed r audit (fun () ->
          Sim.run (fun () -> rep := Some (Auditor.audit_shard a ~shard)));
      match !rep with
      | Some rep when rep.Auditor.ar_ok -> ()
      | _ -> fail "replay: audit of shard %d failed" shard
    done
  in
  (* --- set-up, untimed: the same load and history as the round --- *)
  let n = Array.length inp.W.load in
  let batch = Round.load_batch in
  for i = 0 to (n - 1) / batch do
    let writes = Array.to_list (Array.sub inp.W.load (i * batch) (min batch (n - (i * batch)))) in
    ignore (commit_or_fail ~client:0 ~writes ~reads:[])
  done;
  Array.iter (fun nd -> ignore (Node.persist nd ~now:!clock)) nodes;
  Array.iter
    (fun writes ->
      ignore (commit_or_fail ~client:0 ~writes ~reads:[]);
      persist_cycle ())
    inp.W.history;
  let auditors = Array.init spec.W.auditors (fun i -> Auditor.create cl ~id:i) in
  Array.iter (fun a -> register a; audit_round a) auditors;
  r.spans <- [];
  Array.iter (fun a -> a.calls <- 0; a.wall <- 0.; a.work <- Work.zero; a.minor <- 0.) r.aggs;
  (* --- the timed-window ops, interleaved across clients --- *)
  let writes_per_cycle =
    if e2e.Round.sim_s <= 0. then 1.
    else Float.max 1. (float_of_int e2e.Round.window_writes *. interval /. e2e.Round.sim_s)
  in
  let verified = match spec.W.kind with W.Verified_hot | W.Verified_history -> true | _ -> false in
  (* Auditors catch up every [audit_every] persist cycles: the round's
     cadence, so each catch-up covers as many blocks as it did there. *)
  let audit_every =
    let passes = e2e.Round.audit_rounds / max 1 (W.shards * spec.W.auditors) in
    max 1 (int_of_float (Float.round (e2e.Round.sim_s /. interval /. float_of_int (max 1 passes))))
  in
  let cycles = ref 0 in
  let since_persist = ref 0 in
  let wrote client writes promises =
    last_writes.(client) <- writes;
    pending.(client) <- List.map (fun p -> (!op_id + delay, p)) promises @ pending.(client);
    since_persist := !since_persist + List.length writes;
    if float_of_int !since_persist >= writes_per_cycle then begin
      since_persist := 0;
      persist_cycle ();
      incr cycles;
      if !cycles mod audit_every = 0 then Array.iter audit_round auditors
    end
  in
  Obs.Attr.reset ();
  Obs.Attr.enable ();
  let t_start = now () in
  for i = 0 to spec.W.ops_per_client - 1 do
    for c = 1 to spec.W.clients do
      incr op_id;
      r.op <- !op_id;
      (match inp.W.ops.(c - 1).(i) with
       | W.Put (k, v) ->
         let ps = commit_or_fail ~client:c ~writes:[ (k, v) ] ~reads:[] in
         wrote c [ (k, v) ] ps
       | W.Get k -> verified_read c k ~block:None
       | W.Get_at (k, behind) ->
         let d = digests.(c).(shard_of k) in
         verified_read c k ~block:(Some (max 0 (d.Ledger.block_no - behind)))
       | W.Txn (writes, reads) ->
         let ps = commit_or_fail ~client:c ~writes ~reads in
         wrote c writes ps);
      (* Verified clients flush whatever has fallen due after every op;
         the others leave their promises to the closing gate. *)
      if verified && List.exists (fun (at, _) -> at <= !op_id) pending.(c) then flush c
    done
  done;
  let window_wall = now () -. t_start in
  (* A copy: the gate below keeps adding to [r.aggs]. *)
  let window_aggs = Array.map (fun a -> { a with calls = a.calls }) r.aggs in
  let window_span_wall = Array.fold_left (fun a g -> a +. g.wall) 0. window_aggs in
  let attribution = Obs.Attr.snapshot () in
  Obs.Attr.disable ();
  (* --- the closing gate, timed too: drain, prove every acknowledged
     write, read each client's last writes back, audit --- *)
  incr op_id;
  r.op <- !op_id;
  persist_cycle ();
  for c = 1 to spec.W.clients do
    flush ~force:true c;
    if pending.(c) <> [] then fail "replay: an acknowledged write is still unverified";
    if last_writes.(c) <> [] then
      ignore (txn ~client:c ~writes:[] ~reads:(List.map fst last_writes.(c)))
  done;
  let final_auditors =
    if spec.W.auditors > 0 then auditors
    else begin
      let a = Auditor.create cl ~id:spec.W.auditors in
      register a;
      [| a |]
    end
  in
  Array.iter audit_round final_auditors;
  { rec_ = r; window_aggs; window_wall; window_span_wall; attribution }
