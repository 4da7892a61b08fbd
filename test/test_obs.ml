open Glassdb_util
module Cluster = Glassdb.Cluster
module Client = Glassdb.Client
module Auditor = Glassdb.Auditor
module Diff = Benchdiff_core.Diff

(* --- Lhist bucket boundaries --- *)

let test_lhist_boundaries () =
  let h = Lhist.create ~lo:1.0 ~buckets_per_octave:1 ~octaves:8 () in
  (* With 1 bucket/octave and lo=1: bucket 0 = (-inf, 1], bucket i =
     (2^(i-1), 2^i].  Exact powers of two must land on their upper edge,
     not spill into the next bucket. *)
  List.iter (Lhist.add h) [ -3.0; 0.5; 1.0; 1.5; 2.0; 2.1; 4.0; 300.0 ];
  let buckets = Lhist.buckets h in
  let count_in lo hi =
    match
      List.find_opt (fun (l, u, _) -> l = lo && u = hi) buckets
    with
    | Some (_, _, n) -> n
    | None -> 0
  in
  Alcotest.(check int) "first bucket holds <= lo" 3 (count_in 0.0 1.0);
  Alcotest.(check int) "(1,2] holds 1.5 and 2.0" 2 (count_in 1.0 2.0);
  Alcotest.(check int) "(2,4] holds 2.1 and 4.0" 2 (count_in 2.0 4.0);
  (* 300 > 2^8: clamps into the last bucket. *)
  Alcotest.(check int) "overflow clamps" 1 (count_in 128.0 256.0);
  Alcotest.(check int) "count exact" 8 (Lhist.count h);
  Alcotest.(check (float 1e-9)) "min exact" (-3.0) (Lhist.min_value h);
  Alcotest.(check (float 1e-9)) "max exact" 300.0 (Lhist.max_value h)

let test_lhist_percentile_error () =
  let h = Lhist.create () in
  let samples = List.init 1000 (fun i -> 1e-6 *. float_of_int (i + 1)) in
  List.iter (Lhist.add h) samples;
  (* Default geometry: 8 buckets/octave, g = 2^(1/8); the estimate must be
     within a factor g of the true nearest-rank sample. *)
  let g = Float.pow 2. (1. /. 8.) in
  List.iter
    (fun p ->
      let exact = List.nth samples (max 0 (int_of_float (Float.ceil (p *. 1000.)) - 1)) in
      let est = Lhist.percentile h p in
      if est > exact *. g +. 1e-15 || est < exact /. g -. 1e-15 then
        Alcotest.failf "p%.0f: estimate %g outside [%g/g, %g*g]" (100. *. p)
          est exact exact)
    [ 0.5; 0.9; 0.99; 1.0 ]

let test_lhist_merge () =
  let a = Lhist.create () and b = Lhist.create () in
  List.iter (Lhist.add a) [ 1e-3; 2e-3 ];
  List.iter (Lhist.add b) [ 4e-3; 8e-3 ];
  let m = Lhist.merge a b in
  Alcotest.(check int) "merged count" 4 (Lhist.count m);
  Alcotest.(check (float 1e-12)) "merged sum" 15e-3 (Lhist.sum m);
  let incompatible = Lhist.create ~buckets_per_octave:4 () in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Lhist.merge: incompatible geometries") (fun () ->
      ignore (Lhist.merge a incompatible))

(* --- Stats spill --- *)

let test_stats_spill () =
  let s = Stats.create () in
  let n = 10_000 in
  for i = 1 to n do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check bool) "spilled beyond threshold" false (Stats.is_exact s);
  Alcotest.(check int) "count exact" n (Stats.count s);
  Alcotest.(check (float 1e-6)) "mean exact"
    (float_of_int (n + 1) /. 2.)
    (Stats.mean s);
  let g = Float.pow 2. (1. /. 8.) in
  List.iter
    (fun p ->
      let exact = Float.ceil (p *. float_of_int n) in
      let est = Stats.percentile s p in
      if est > exact *. g || est < exact /. g then
        Alcotest.failf "spilled p%.0f: %g vs exact %g" (100. *. p) est exact)
    [ 0.5; 0.99 ];
  (* Below the threshold percentiles stay nearest-rank exact. *)
  let s2 = Stats.create () in
  for i = 1 to 100 do
    Stats.add s2 (float_of_int i)
  done;
  Alcotest.(check bool) "small stays exact" true (Stats.is_exact s2);
  (* Exact mode keeps the rounded-index convention: round(0.5 * 99) = 50,
     i.e. the 51st smallest of 1..100. *)
  Alcotest.(check (float 1e-9)) "small p50" 51. (Stats.percentile s2 0.5)

let test_hist_add_negative () =
  (* Regression: int_of_float truncates toward zero, which used to fold
     every sample in (-width, width) — including negatives — into bucket 0
     and misplace all negative samples.  Floor fixes the bucket index. *)
  let h = Stats.histogram ~bucket_width:1.0 in
  List.iter (Stats.hist_add h) [ -1.5; -0.2; 0.3; 1.7 ];
  let buckets = Stats.hist_buckets h in
  let count_at t =
    match List.find_opt (fun (lo, _) -> lo = t) buckets with
    | Some (_, n) -> n
    | None -> 0
  in
  Alcotest.(check int) "bucket [-2,-1)" 1 (count_at (-2.));
  Alcotest.(check int) "bucket [-1,0)" 1 (count_at (-1.));
  Alcotest.(check int) "bucket [0,1)" 1 (count_at 0.);
  Alcotest.(check int) "bucket [1,2)" 1 (count_at 1.)

(* --- exception safety --- *)

exception Boom

let test_measure_exception_safe () =
  let before = Work.snapshot () in
  (try
     ignore
       (Work.measure (fun () ->
            Work.note_hash ();
            raise Boom))
   with Boom -> ());
  let after = Work.snapshot () in
  Alcotest.(check int) "hash still counted globally" 1
    (after.Work.hashes - before.Work.hashes);
  (* A subsequent measure starts from a consistent baseline. *)
  let _, c = Work.measure (fun () -> Work.note_hash ()) in
  Alcotest.(check int) "next measure sees only its own work" 1 c.Work.hashes

let test_attribution_nested_and_exceptional () =
  Work.set_attribution true;
  Work.reset_attribution ();
  Work.with_component "outer" (fun () ->
      Work.note_hash ();
      Work.note_hash ();
      Work.with_component "inner" (fun () ->
          Work.note_hash ();
          Work.note_hash ();
          Work.note_hash ());
      Work.note_hash ());
  (try
     Work.with_component "outer" (fun () ->
         Work.note_hash ();
         raise Boom)
   with Boom -> ());
  let attr = Work.attribution () in
  let hashes c =
    match List.assoc_opt c attr with
    | Some w -> w.Work.hashes
    | None -> 0
  in
  (* Exclusive semantics: inner work is not double-charged to outer, and
     the scope closed by the exception still attributes its work. *)
  Alcotest.(check int) "outer self hashes" 4 (hashes "outer");
  Alcotest.(check int) "inner self hashes" 3 (hashes "inner");
  Work.set_attribution false

let test_charged_time_exception_safe () =
  Sim.run (fun () ->
      let t0 = Sim.now () in
      (try
         ignore
           (Cost.charged_time Cost.default (fun () ->
                Work.note_hash ();
                raise Boom))
       with Boom -> ());
      (* The work done before the raise is still charged as virtual time. *)
      Alcotest.(check bool) "time charged on exception" true (Sim.now () > t0))

(* --- metrics registry --- *)

let test_metrics_registry () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~name:"t.c" ~labels:[ ("k", "v") ] () in
  Obs.Metrics.inc c;
  Obs.Metrics.inc ~by:2.5 c;
  Alcotest.(check (float 1e-9)) "counter value" 3.5 (Obs.Metrics.counter_value c);
  (* Find-or-create returns the same underlying counter. *)
  let c' = Obs.Metrics.counter ~name:"t.c" ~labels:[ ("k", "v") ] () in
  Obs.Metrics.inc c';
  Alcotest.(check (float 1e-9)) "shared handle" 4.5 (Obs.Metrics.counter_value c);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.histogram: \"t.c\" is not a histogram")
    (fun () -> ignore (Obs.Metrics.histogram ~name:"t.c" ~labels:[ ("k", "v") ] ()));
  let h = Obs.Metrics.histogram ~name:"t.h" () in
  Obs.Metrics.observe h 0.25;
  let entries = Obs.Metrics.snapshot () in
  Alcotest.(check int) "two metrics registered" 2 (List.length entries);
  match entries with
  | [ ce; he ] ->
    Alcotest.(check string) "canonical order" "t.c" ce.Obs.Metrics.e_name;
    Alcotest.(check string) "fq name" "t.c{k=v}" (Obs.Metrics.fq_name ce);
    (match he.Obs.Metrics.e_value with
     | Obs.Metrics.Vhistogram hs ->
       Alcotest.(check int) "hist count" 1 hs.Obs.Metrics.h_count
     | _ -> Alcotest.fail "expected histogram entry")
  | _ -> Alcotest.fail "unexpected snapshot shape"

let test_gauge_sampling_cadence () =
  Obs.Metrics.reset ();
  let ticks = ref 0. in
  Obs.Metrics.gauge ~name:"t.g" (fun () ->
      ticks := !ticks +. 1.;
      !ticks);
  Sim.run (fun () ->
      let sampler = Obs.Sampler.start ~interval:0.1 () in
      Sim.sleep 0.55;
      Obs.Sampler.stop sampler);
  match Obs.Metrics.snapshot () with
  | [ { Obs.Metrics.e_value = Obs.Metrics.Vgauge (last, series); _ } ] ->
    (* First scrape at t=0.1, then every 0.1 until the stop at 0.55. *)
    Alcotest.(check int) "five samples" 5 (List.length series);
    List.iteri
      (fun i (t, v) ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "sample %d time" i)
          (0.1 *. float_of_int (i + 1))
          t;
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "sample %d value" i)
          (float_of_int (i + 1))
          v)
      series;
    Alcotest.(check (float 1e-9)) "last value" 5. last
  | _ -> Alcotest.fail "expected exactly the one gauge"

(* --- spans --- *)

let test_spans_disabled_and_nested () =
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  let r = Obs.Trace.span ~name:"off" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded while disabled" 0
    (Obs.Trace.event_count ());
  Obs.Trace.enable ();
  Sim.run (fun () ->
      Obs.Trace.span ~name:"outer" ~track:7 (fun () ->
          Sim.sleep 0.1;
          Obs.Trace.span ~name:"inner" ~track:7 (fun () -> Sim.sleep 0.2);
          Sim.sleep 0.3));
  (try Obs.Trace.span ~name:"raising" (fun () -> raise Boom)
   with Boom -> ());
  (match Obs.Trace.events () with
   | [ inner; outer; raising ] ->
     (* Completion order: inner closes before outer. *)
     Alcotest.(check string) "inner first" "inner" inner.Obs.Trace.ev_name;
     Alcotest.(check (float 1e-9)) "inner start" 0.1 inner.Obs.Trace.ev_ts;
     Alcotest.(check (float 1e-9)) "inner duration" 0.2 inner.Obs.Trace.ev_dur;
     Alcotest.(check string) "outer second" "outer" outer.Obs.Trace.ev_name;
     Alcotest.(check (float 1e-9)) "outer duration" 0.6 outer.Obs.Trace.ev_dur;
     (* The inner span nests inside the outer one on the same track. *)
     Alcotest.(check bool) "nested in time" true
       (inner.Obs.Trace.ev_ts >= outer.Obs.Trace.ev_ts
       && inner.Obs.Trace.ev_ts +. inner.Obs.Trace.ev_dur
          <= outer.Obs.Trace.ev_ts +. outer.Obs.Trace.ev_dur);
     Alcotest.(check string) "raising span recorded" "raising"
       raising.Obs.Trace.ev_name
   | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs));
  Obs.Trace.disable ()

(* --- end-to-end determinism --- *)

let traced_run () =
  Obs.Trace.enable ();
  Obs.Metrics.reset ();
  Obs.Attr.reset ();
  Obs.Attr.enable ();
  Sim.run (fun () ->
      let cluster = Cluster.create (Glassdb.Config.make ~shards:2 ()) in
      Cluster.start cluster;
      let sampler = Obs.Sampler.start ~interval:0.05 () in
      let client = Client.create cluster ~id:1 ~sk:"det-key" in
      let auditor = Auditor.create cluster ~id:0 in
      Auditor.register_client auditor ~client:1 ~pk:"det-key";
      for i = 1 to 40 do
        let key = Printf.sprintf "key-%02d" (i mod 10) in
        match
          Client.execute client (fun t -> Client.put t key (string_of_int i))
        with
        | Ok (_, promises) -> Client.queue_promises client promises
        | Error _ -> ()
      done;
      Sim.sleep 0.2;
      ignore (Client.flush_verifications client ~force:true ());
      ignore (Auditor.audit_all auditor);
      Obs.Sampler.stop sampler;
      Cluster.stop cluster);
  let out = (Obs.Export.trace_json (), Obs.Export.metrics_json ()) in
  Obs.Trace.disable ();
  Obs.Attr.disable ();
  out

let test_determinism () =
  let trace1, metrics1 = traced_run () in
  let trace2, metrics2 = traced_run () in
  Alcotest.(check bool) "trace non-trivial" true (String.length trace1 > 500);
  Alcotest.(check string) "byte-identical traces" trace1 trace2;
  Alcotest.(check string) "byte-identical metrics" metrics1 metrics2

(* --- benchdiff round-trip --- *)

let doc wall =
  Obs.Export.(
    Obj
      [ ("schema", Str "glassdb.bench5/v5");
        ("stages",
         Arr [ Obj [ ("stage", Str "proofs"); ("wall_s", Num wall) ] ]);
        ("wallclock", Obj [ ("finished_unix_s", Num 1.) ]) ])

let test_benchdiff_roundtrip () =
  let r = Diff.diff (doc 1.0) (doc 1.0) in
  Alcotest.(check int) "identical docs: no changes" 0
    (List.length r.Diff.r_changes);
  Alcotest.(check int) "identical docs: no regressions" 0 (Diff.regressions r);
  let r = Diff.diff (doc 1.0) (doc 1.3) in
  Alcotest.(check int) "slower wall_s flagged" 1 (Diff.regressions r);
  let r = Diff.diff (doc 1.3) (doc 1.0) in
  Alcotest.(check int) "faster wall_s not a regression" 0 (Diff.regressions r);
  Alcotest.(check int) "but still reported" 1 (List.length r.Diff.r_changes);
  (* wallclock is exempt, like in the determinism checks. *)
  let with_wall t =
    Obs.Export.(Obj [ ("wallclock", Obj [ ("finished_unix_s", Num t) ]) ])
  in
  let r = Diff.diff (with_wall 1.) (with_wall 99.) in
  Alcotest.(check int) "wallclock ignored" 0
    (List.length r.Diff.r_changes + Diff.regressions r);
  (* Canonical report survives its own parser. *)
  let text = Obs.Export.to_string (Diff.report_json (Diff.diff (doc 1.0) (doc 1.3))) in
  match Bench1.parse text with
  | exception Bench1.Bad m -> Alcotest.fail ("report does not parse: " ^ m)
  | j ->
    Alcotest.(check bool) "schema tag" true
      (Bench1.field "schema" j = Some (Obs.Export.Str Diff.schema_id))

let test_benchgate_volatile () =
  (* The gate skips exactly the timing fields; a digest change still
     gates. *)
  let doc ~cores ~wall ~digest =
    Obs.Export.(
      Obj
        [ ("host_cores", Num cores);
          ("stages",
           Arr
             [ Obj
                 [ ("stage", Str "proofs"); ("digest", Str digest);
                   ("wall_s", Num wall) ] ]) ])
  in
  let diff a b = Diff.diff ~volatile:Bench5.volatile a b in
  let base = doc ~cores:1. ~wall:0.1 ~digest:"aa" in
  let r = diff base (doc ~cores:8. ~wall:9. ~digest:"aa") in
  Alcotest.(check int) "wall_s and host_cores skipped" 0
    (List.length r.Diff.r_changes + Diff.regressions r);
  let r = diff base (doc ~cores:1. ~wall:0.1 ~digest:"bb") in
  Alcotest.(check int) "digest change gates" 1 (Diff.regressions r)

(* --- BENCH_5 schema --- *)

(* A minimal document of the v5 shape; [edit] rewrites the top-level
   fields and [row] each stage row. *)
let bench5_doc ?(edit = Fun.id) ?(row = fun _ fields -> fields) () =
  let metrics =
    Obs.Export.(
      Obj
        [ ("schema", Str "glassdb.metrics/v1");
          ("counters", Obj [ ("c", Num 1.) ]);
          ("gauges", Obj [ ("g", Obj [ ("samples", Arr [ Arr [ Num 0.; Num 1. ] ]) ]) ]);
          ("histograms", Obj [ ("h", Obj [ ("count", Num 1.) ]) ]);
          ("attribution", Obj []) ])
  in
  Obs.Export.to_string
    (Obs.Export.Obj
       (edit
          Obs.Export.
            [ ("schema", Str Bench5.schema_id);
              ("profile", Str "smoke");
              ("host_cores", Num 2.);
              ("stages",
               Arr
                 (List.map
                    (fun name ->
                      Obj
                        (row name
                           [ ("stage", Str name); ("digest", Str "d");
                             ("wall_s", Num 0.5) ]))
                    Bench5.stage_names));
              ("metrics", metrics) ]))

let check_rejected label text =
  match Bench5.validate text with
  | Ok () -> Alcotest.failf "%s accepted" label
  | Error _ -> ()

let test_bench5_accepts_v5 () =
  Alcotest.(check string) "schema tag" "glassdb.bench5/v5" Bench5.schema_id;
  match Bench5.validate (bench5_doc ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "v5 document rejected: %s" m

let test_bench5_rejects_old_schema () =
  let retag tag =
    List.map (function
      | "schema", _ -> ("schema", Obs.Export.Str tag)
      | f -> f)
  in
  List.iter
    (fun tag -> check_rejected tag (bench5_doc ~edit:(retag tag) ()))
    [ "glassdb.bench5/v4"; "glassdb.bench5/v1"; "" ]

let test_bench5_rejects_missing_stage () =
  List.iter
    (fun missing ->
      let edit =
        List.map (function
          | "stages", Obs.Export.Arr rows ->
            ( "stages",
              Obs.Export.Arr
                (List.filter
                   (fun r -> Bench1.field "stage" r <> Some (Obs.Export.Str missing))
                   rows) )
          | f -> f)
      in
      check_rejected ("without " ^ missing) (bench5_doc ~edit ()))
    Bench5.stage_names

let test_bench5_rejects_bad_rows () =
  let drop key name fields =
    if name = "persist" then List.remove_assoc key fields else fields
  in
  check_rejected "row without digest" (bench5_doc ~row:(drop "digest") ());
  check_rejected "row without wall_s" (bench5_doc ~row:(drop "wall_s") ());
  check_rejected "empty digest"
    (bench5_doc
       ~row:(fun name fields ->
         if name = "micro" then
           ("digest", Obs.Export.Str "") :: List.remove_assoc "digest" fields
         else fields)
       ());
  check_rejected "no metrics"
    (bench5_doc ~edit:(List.remove_assoc "metrics") ());
  check_rejected "no host_cores"
    (bench5_doc ~edit:(List.remove_assoc "host_cores") ())

let () =
  Alcotest.run "obs"
    [ ("lhist",
       [ Alcotest.test_case "bucket boundaries" `Quick test_lhist_boundaries;
         Alcotest.test_case "percentile error bound" `Quick
           test_lhist_percentile_error;
         Alcotest.test_case "merge" `Quick test_lhist_merge ]);
      ("stats",
       [ Alcotest.test_case "spill keeps percentiles bounded" `Quick
           test_stats_spill;
         Alcotest.test_case "hist_add negative samples" `Quick
           test_hist_add_negative ]);
      ("work",
       [ Alcotest.test_case "measure exception-safe" `Quick
           test_measure_exception_safe;
         Alcotest.test_case "nested + exceptional attribution" `Quick
           test_attribution_nested_and_exceptional;
         Alcotest.test_case "charged_time exception-safe" `Quick
           test_charged_time_exception_safe ]);
      ("metrics",
       [ Alcotest.test_case "registry" `Quick test_metrics_registry;
         Alcotest.test_case "gauge sampling cadence" `Quick
           test_gauge_sampling_cadence ]);
      ("trace",
       [ Alcotest.test_case "disabled + nested spans" `Quick
           test_spans_disabled_and_nested ]);
      ("end-to-end",
       [ Alcotest.test_case "identical runs, identical bytes" `Quick
           test_determinism ]);
      ("benchdiff",
       [ Alcotest.test_case "round-trip: empty diff, flagged regression"
           `Quick test_benchdiff_roundtrip;
         Alcotest.test_case "gate skips only timing fields" `Quick
           test_benchgate_volatile ]);
      ("bench5",
       [ Alcotest.test_case "v5 document accepted" `Quick
           test_bench5_accepts_v5;
         Alcotest.test_case "older schema tags rejected" `Quick
           test_bench5_rejects_old_schema;
         Alcotest.test_case "missing stage rejected" `Quick
           test_bench5_rejects_missing_stage;
         Alcotest.test_case "incomplete rows and sections rejected" `Quick
           test_bench5_rejects_bad_rows ]) ]
