open Glassdb_util
module Config = Glassdb.Config
module Cluster = Glassdb.Cluster
module Client = Glassdb.Client
module Diff = Benchdiff_core.Diff

(* A deterministic fake clock: ticks 1µs per reading, so busy/wait times
   are a pure function of how many times the profiler looked at it. *)
let fake_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1e-6;
    !t

let with_pool_size n f =
  let orig = Pool.global_size () in
  Pool.set_global_size n;
  Fun.protect ~finally:(fun () -> Pool.set_global_size orig) f

let with_prof ?clock f =
  Obs.Prof.enable ?clock ();
  Fun.protect ~finally:(fun () -> Obs.Prof.disable ()) f

let work_arr = Array.init 4096 (fun i -> i)

(* One threshold's worth of declared cost per item: well above the bypass,
   so every pool size > 1 takes the parallel path. *)
let run_job () =
  Pool.parallel_map
    ~cost:(fun _ -> Pool.work_threshold)
    (Pool.global ())
    (fun x -> (x * 7919) land 0xffff)
    work_arr

(* --- disabled mode: no hooks fire, outputs identical --- *)

let test_disabled_zero_cost () =
  Obs.Prof.disable ();
  let off = run_job () in
  let on_ =
    with_prof ~clock:(fake_clock ()) (fun () ->
        let r = run_job () in
        Alcotest.(check bool) "hooks fire when enabled" true
          ((Obs.Prof.snapshot ()).Obs.Prof.s_pool.Obs.Prof.p_jobs > 0);
        r)
  in
  Alcotest.(check bool) "same output with profiling on and off" true
    (off = on_);
  (* With the profiler off again, a job leaves the (stale) state untouched. *)
  let before = (Obs.Prof.snapshot ()).Obs.Prof.s_pool.Obs.Prof.p_jobs in
  ignore (run_job ());
  let after = (Obs.Prof.snapshot ()).Obs.Prof.s_pool.Obs.Prof.p_jobs in
  Alcotest.(check int) "disabled jobs don't count" before after

(* --- schema shape is pool-size-invariant --- *)

let test_schema_pool_size_invariant () =
  let rec field_names (j : Obs.Export.json) =
    match j with
    | Obs.Export.Obj fields ->
      List.concat_map
        (fun (k, v) -> k :: List.map (fun n -> k ^ "." ^ n) (field_names v))
        fields
    | Obs.Export.Arr (el :: _) -> field_names el
    | _ -> []
  in
  let shapes =
    List.map
      (fun n ->
        with_pool_size n (fun () ->
            with_prof ~clock:(fake_clock ()) (fun () ->
                ignore (run_job ());
                let s = (Obs.Prof.snapshot ()).Obs.Prof.s_pool in
                Alcotest.(check int)
                  (Printf.sprintf "pool_size at %d" n)
                  n s.Obs.Prof.p_pool_size;
                Alcotest.(check int)
                  (Printf.sprintf "one domain row per domain at %d" n)
                  n
                  (List.length s.Obs.Prof.p_domains);
                Alcotest.(check bool)
                  (Printf.sprintf "items all accounted at %d" n)
                  true
                  (s.Obs.Prof.p_items = Array.length work_arr);
                field_names (Obs.Export.Obj (Obs.Export.prof_fields ())))))
      [ 1; 2; 4; 8 ]
  in
  match shapes with
  | base :: rest ->
    List.iteri
      (fun i s ->
        Alcotest.(check (list string))
          (Printf.sprintf "field set at size %d" (List.nth [ 2; 4; 8 ] i))
          base s)
      rest
  | [] -> assert false

(* --- contention counters are deterministic under seeded faults --- *)

let faulty_run () =
  with_prof (fun () ->
      (* Default clock inside Sim.run is Sim.now: virtual time, so the
         profile is a pure function of the seed. *)
      Sim.run (fun () ->
          let faults = Faults.create ~drop:0.02 ~seed:11 () in
          Faults.schedule faults ~at:0.3 (Faults.Crash 0);
          Faults.schedule faults ~at:0.8 (Faults.Restart 0);
          let cluster =
            Cluster.create
              (Config.make ~shards:2 ~rpc_timeout:0.1 ~rpc_retries:2
                 ~retry_backoff:0.01 ~faults ())
          in
          Cluster.start cluster;
          let client = Client.create cluster ~id:1 ~sk:"sk-prof" in
          let rng = Rng.create 7 in
          Sim.spawn (fun () ->
              for i = 1 to 80 do
                let k = Printf.sprintf "key-%02d" (Rng.int_below rng 16) in
                (match
                   Client.execute client (fun h ->
                       Client.put h k (string_of_int i))
                 with
                 | Ok (_, promises) -> Client.queue_promises client promises
                 | Error _ -> ());
                Sim.sleep 0.02
              done;
              Cluster.stop cluster);
          ());
      let s = Obs.Prof.snapshot () in
      let locks =
        List.map
          (fun (l : Pool.Lock.snapshot) ->
            (l.Pool.Lock.sn_name, l.Pool.Lock.sn_locks,
             l.Pool.Lock.sn_acquires, l.Pool.Lock.sn_contended))
          s.Obs.Prof.s_locks
      in
      (s.Obs.Prof.s_pool.Obs.Prof.p_jobs, s.Obs.Prof.s_pool.Obs.Prof.p_items,
       locks))

let test_contention_deterministic () =
  with_pool_size 1 (fun () ->
      let a = faulty_run () in
      let b = faulty_run () in
      let _, _, locks = a in
      Alcotest.(check bool) "same seed, same profile" true (a = b);
      Alcotest.(check bool) "node_store.shard lock exercised" true
        (List.exists
           (fun (name, _, acquires, _) ->
             String.equal name "node_store.shard" && acquires > 0)
           locks);
      (* Single-domain run: the try_lock fast path never fails. *)
      List.iter
        (fun (name, _, _, contended) ->
          Alcotest.(check int) (name ^ " uncontended at pool size 1") 0
            contended)
        locks)

(* --- benchdiff round-trip --- *)

let doc wall =
  Bench1.(
    Obj
      [ ("schema", Str "glassdb.bench5/v4");
        ("stages",
         Arr
           [ Obj
               [ ("stage", Str "proofs");
                 ("runs", Arr [ Obj [ ("wall_s", Num wall) ] ]) ] ]);
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
    Bench1.(Obj [ ("wallclock", Obj [ ("finished_unix_s", Num t) ]) ])
  in
  let r = Diff.diff (with_wall 1.) (with_wall 99.) in
  Alcotest.(check int) "wallclock ignored" 0
    (List.length r.Diff.r_changes + Diff.regressions r);
  (* Canonical report survives its own parser. *)
  let text = Bench1.to_string (Diff.report_json (Diff.diff (doc 1.0) (doc 1.3))) in
  match Bench1.parse text with
  | exception Bench1.Bad m -> Alcotest.fail ("report does not parse: " ^ m)
  | j ->
    Alcotest.(check bool) "schema tag" true
      (Bench1.field "schema" j = Some (Bench1.Str Diff.schema_id))

let () =
  Alcotest.run "prof"
    [ ( "prof",
        [ Alcotest.test_case "disabled mode is zero-cost" `Quick
            test_disabled_zero_cost;
          Alcotest.test_case "schema invariant across pool sizes 1/2/4/8"
            `Quick test_schema_pool_size_invariant;
          Alcotest.test_case "seeded faults give deterministic contention"
            `Quick test_contention_deterministic ] );
      ( "benchdiff",
        [ Alcotest.test_case "round-trip: empty diff, flagged regression"
            `Quick test_benchdiff_roundtrip ] ) ]
