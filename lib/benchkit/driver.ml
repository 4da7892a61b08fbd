open Glassdb_util

type result = {
  r_name : string;
  r_throughput : float;
  r_commits : int;
  r_aborts : int;
  r_abort_rate : float;
  r_latency : Stats.t;
  r_verifications : int;
  r_verified_keys : int;
  r_proof_bytes : Stats.t;
  r_verify_latency : Stats.t;
  r_phase_stats : (string * Stats.t) list;
  r_storage_bytes : int;
  r_blocks : int;
  r_failures : int;
}

type setup = {
  sys : System.sysdef;
  params : System.params;
  clients : int;
  duration : float;
  warmup : float;
  seed : int;
}

type accum = {
  mutable commits : int;
  mutable aborts : int;
  latency : Stats.t;
  proof_bytes : Stats.t;
  verify_latency : Stats.t;
  mutable verifications : int;
  mutable verified_keys : int;
  mutable failures : int;
}

let accum () =
  { commits = 0;
    aborts = 0;
    latency = Stats.create ();
    proof_bytes = Stats.create ();
    verify_latency = Stats.create ();
    verifications = 0;
    verified_keys = 0;
    failures = 0 }

let note_verification acc (v : System.verification) =
  acc.verifications <- acc.verifications + 1;
  acc.verified_keys <- acc.verified_keys + v.System.keys;
  Stats.add acc.proof_bytes (float_of_int v.System.proof_bytes);
  Stats.add acc.verify_latency v.System.latency;
  if not v.System.ok then acc.failures <- acc.failures + 1

let finish setup admin acc started_measuring =
  let measured = setup.duration -. started_measuring in
  { r_name = admin.System.a_name;
    r_throughput = float_of_int acc.commits /. measured;
    r_commits = acc.commits;
    r_aborts = acc.aborts;
    r_abort_rate =
      (let total = acc.commits + acc.aborts in
       if total = 0 then 0. else float_of_int acc.aborts /. float_of_int total);
    r_latency = acc.latency;
    r_verifications = acc.verifications;
    r_verified_keys = acc.verified_keys;
    r_proof_bytes = acc.proof_bytes;
    r_verify_latency = acc.verify_latency;
    r_phase_stats = admin.System.a_phase_stats ();
    r_storage_bytes = admin.System.a_storage_bytes ();
    r_blocks = admin.System.a_blocks ();
    r_failures = acc.failures }

(* Spawn the client loops and stop everything at [duration]. *)
let in_harness setup ~load ~client_loop =
  let out = ref None in
  Sim.run (fun () ->
      (* Fresh metric registry per run: the system's nodes re-register
         their gauges inside [make], so one run's instances never leak
         into the next run's snapshot. *)
      Obs.Metrics.reset ();
      Obs.Attr.reset ();
      Obs.Attr.enable ();
      let admin = setup.sys.System.make setup.params in
      admin.System.a_start ();
      let sampler = Obs.Sampler.start ~interval:0.05 () in
      let acc = accum () in
      let loader = admin.System.a_client 0 in
      load loader;
      let stop_at = Sim.now () +. setup.duration in
      let measure_from = Sim.now () +. setup.warmup in
      let master = Rng.create setup.seed in
      let clients = ref [] in
      for i = 1 to setup.clients do
        let client = admin.System.a_client i in
        clients := client :: !clients;
        let rng = Rng.split master in
        Sim.spawn (fun () -> client_loop ~client ~rng ~acc ~stop_at ~measure_from)
      done;
      (* Reset server-side stats at the end of warmup. *)
      Sim.spawn (fun () ->
          Sim.sleep setup.warmup;
          admin.System.a_reset_stats ());
      Sim.spawn (fun () ->
          Sim.sleep setup.duration;
          Obs.Sampler.stop sampler;
          admin.System.a_stop ();
          (* Final flush of deferred verifications. *)
          List.iter
            (fun c ->
              List.iter (note_verification acc) (c.System.c_flush ~force:true))
            !clients;
          out := Some (finish setup admin acc setup.warmup);
          Sim.stop ()));
  match !out with
  | Some r -> r
  | None -> failwith "Driver: simulation stopped without producing a result"

let run_transactional setup ~load ~body =
  let client_loop ~client ~rng ~acc ~stop_at ~measure_from =
    while Sim.now () < stop_at do
      let t0 = Sim.now () in
      let result = body client rng in
      let t1 = Sim.now () in
      if t1 >= measure_from && t1 < stop_at then begin
        (match result with
         | Ok () ->
           acc.commits <- acc.commits + 1;
           Stats.add acc.latency (t1 -. t0)
         | Error _ -> acc.aborts <- acc.aborts + 1);
        List.iter (note_verification acc) (client.System.c_flush ~force:false)
      end;
      if Float.equal t1 t0 then Sim.sleep 1e-6 (* defensive: guarantee progress *)
    done
  in
  in_harness setup ~load ~client_loop

let run_ycsb setup cfg =
  run_transactional setup
    ~load:(fun c -> Ycsb.load c cfg)
    ~body:(fun client rng -> Ycsb.run_txn client rng cfg)

let run_verified setup cfg ~pick =
  let client_loop ~client ~rng ~acc ~stop_at ~measure_from =
    while Sim.now () < stop_at do
      let t0 = Sim.now () in
      let op = pick rng in
      let result = Ycsb.run_verified_op client rng cfg op in
      let t1 = Sim.now () in
      if t1 >= measure_from && t1 < stop_at then begin
        (match result with
         | Ok v ->
           acc.commits <- acc.commits + 1;
           Stats.add acc.latency (t1 -. t0);
           Option.iter (note_verification acc) v
         | Error _ -> acc.aborts <- acc.aborts + 1);
        List.iter (note_verification acc) (client.System.c_flush ~force:false)
      end;
      if Float.equal t1 t0 then Sim.sleep 1e-6
    done
  in
  in_harness setup ~load:(fun c -> Ycsb.load c cfg) ~client_loop

let run_timeline setup ~load ~body ~events =
  let buckets = ref [] in
  Sim.run (fun () ->
      Obs.Metrics.reset ();
      Obs.Attr.reset ();
      Obs.Attr.enable ();
      let admin = setup.sys.System.make setup.params in
      admin.System.a_start ();
      let sampler = Obs.Sampler.start ~interval:0.05 () in
      let loader = admin.System.a_client 0 in
      load loader;
      let hist = Stats.histogram ~bucket_width:1.0 in
      let t_start = Sim.now () in
      let stop_at = t_start +. setup.duration in
      let master = Rng.create setup.seed in
      for i = 1 to setup.clients do
        let client = admin.System.a_client i in
        let rng = Rng.split master in
        Sim.spawn (fun () ->
            while Sim.now () < stop_at do
              let t0 = Sim.now () in
              (match body client rng with
               | Ok () -> Stats.hist_add hist (Sim.now () -. t_start)
               | Error _ -> ());
              if Float.equal (Sim.now ()) t0 then Sim.sleep 1e-6
            done)
      done;
      List.iter
        (fun (at, action) ->
          Sim.spawn (fun () ->
              Sim.sleep at;
              action admin))
        events;
      Sim.spawn (fun () ->
          Sim.sleep setup.duration;
          Obs.Sampler.stop sampler;
          admin.System.a_stop ();
          buckets := Stats.hist_buckets hist;
          Sim.stop ()));
  !buckets
