(* Micro-benchmarks and server/client cost experiments:
   Table 1 and Figures 4-8 and 14 of the paper. *)

open Benchkit
module Kv = Txnkit.Kv

(* --- Table 1: proof complexity, measured --- *)

let table1 () =
  (* Grow each system's history and measure append-only and current-value
     proof sizes for a key written early, demonstrating the complexity
     classes of Table 1 empirically. *)
  let sizes = [ 500; 1000; 2000; 4000 ] in
  let rows = ref [] in
  Sim.run (fun () ->
      (* GlassDB ledger: batched blocks over a fixed keyspace. *)
      let glassdb n =
        let l = ref (Glassdb.Ledger.create
                       (Glassdb.Ledger.config (Storage.Node_store.create ()))) in
        let txn = ref 0 in
        while !txn < n do
          let batch = min 20 (n - !txn) in
          let writes =
            List.init batch (fun i ->
                { Glassdb.Ledger.wkey = Printf.sprintf "key-%03d" ((!txn + i) mod 200);
                  wvalue = string_of_int (!txn + i);
                  wtid = "t" })
          in
          (* One write per key per block. *)
          let dedup = Hashtbl.create 32 in
          let writes =
            List.filter
              (fun w ->
                if Hashtbl.mem dedup w.Glassdb.Ledger.wkey then false
                else begin
                  Hashtbl.replace dedup w.Glassdb.Ledger.wkey ();
                  true
                end)
              writes
          in
          l := Glassdb.Ledger.append_block !l ~time:0. ~writes ~txns:[];
          txn := !txn + batch
        done;
        let current =
          Glassdb.Ledger.proof_codec.Glassdb_util.Codec.size_bytes
            (Glassdb.Ledger.prove_current !l "key-007")
        in
        let append =
          Glassdb.Ledger.append_proof_codec.Glassdb_util.Codec.size_bytes
            (Glassdb.Ledger.prove_append_only !l
               ~old_block:(Glassdb.Ledger.latest_block !l / 2))
        in
        (current, append)
      in
      (* QLDB: the key is written once near the start, then N-1 other txns. *)
      let qldb n =
        let nd = Qldb.Node.create Qldb.default_config ~shard_id:0 in
        let commit i k v =
          let stxn = Kv.sign ~sk:"s" ~tid:(Printf.sprintf "t%d" i) ~client:1
              { Kv.reads = []; writes = [ (k, v) ] } in
          ignore (Qldb.Node.prepare nd ~rw:stxn.Kv.rw stxn);
          Qldb.Node.commit nd stxn.Kv.tid
        in
        commit 0 "target" "v";
        for i = 1 to n - 1 do
          commit i (Printf.sprintf "k%d" i) "v"
        done;
        let p = Option.get (Qldb.Node.get_verified_latest nd "target") in
        let ap = Qldb.Node.append_only_proof nd ~old_size:(n / 2) in
        (Qldb.Node.current_proof_bytes p,
         Mtree.Merkle_log.proof_size_bytes ap)
      in
      (* LedgerDB: same shape; the target key has ~n/100 versions. *)
      let ledgerdb n =
        let nd = Ledgerdb.Node.create Ledgerdb.default_config ~shard_id:0 in
        let commit i k v =
          let stxn = Kv.sign ~sk:"s" ~tid:(Printf.sprintf "t%d" i) ~client:1
              { Kv.reads = []; writes = [ (k, v) ] } in
          ignore (Ledgerdb.Node.prepare nd ~rw:stxn.Kv.rw stxn);
          Ledgerdb.Node.commit nd stxn.Kv.tid
        in
        for i = 0 to n - 1 do
          if i mod 100 = 0 then commit i "target" (string_of_int i)
          else commit i (Printf.sprintf "k%d" i) "v"
        done;
        ignore (Ledgerdb.Node.flush_batch nd);
        let p = Option.get (Ledgerdb.Node.get_verified_latest nd "target") in
        let ap = Ledgerdb.Node.append_only_proof nd ~old_size:(n / 2) in
        (Ledgerdb.Node.current_proof_bytes p,
         Mtree.Merkle_log.proof_size_bytes ap)
      in
      (* Trillian: map of n keys. *)
      let trillian n =
        let t = Trillian.create Trillian.default_config in
        ignore (Trillian.put t "target" "v");
        for i = 1 to n - 1 do
          ignore (Trillian.put t (Printf.sprintf "k%d" i) "v")
        done;
        ignore (Trillian.sequence t);
        let _, p = Option.get (Trillian.get_verified t "target") in
        let ap = Trillian.append_only_proof t ~old_size:(n / 2) in
        (Trillian.read_proof_bytes p, Mtree.Merkle_log.proof_size_bytes ap)
      in
      List.iter
        (fun (name, f) ->
          let cells =
            List.concat_map
              (fun n ->
                let cur, app = f n in
                [ string_of_int cur; string_of_int app ])
              sizes
          in
          rows := (name :: cells) :: !rows)
        [ ("GlassDB", glassdb); ("LedgerDB*", ledgerdb); ("QLDB*", qldb);
          ("Trillian", trillian) ]);
  Report.table
    ~title:"Table 1 (measured): proof sizes in bytes as history grows"
    ~note:
      "columns: current-value / append-only proof bytes at N = 500, 1000, \
       2000, 4000 txns.  Expect QLDB* current-value O(N); LedgerDB* grows \
       with key versions; GlassDB and Trillian stay logarithmic."
    ~header:
      [ "system"; "cur@500"; "app@500"; "cur@1k"; "app@1k"; "cur@2k";
        "app@2k"; "cur@4k"; "app@4k" ]
    (List.rev !rows)

(* --- Figure 4: GlassDB phase latency breakdown --- *)

let phase_cells stats =
  List.map
    (fun phase -> Report.us (Common.phase_mean stats phase))
    [ "prepare"; "commit"; "persist"; "get-proof" ]

let run_glassdb_phases ?shards ?clients ?(interval = 0.05) ?(mix = Ycsb.Balanced)
    ?(ops = 10) () =
  let params = Common.params ?shards ~persist_interval:interval () in
  let setup = Common.setup ?clients Adapters.glassdb params in
  let cfg = Common.ycsb ~mix ~ops () in
  Driver.run_transactional setup
    ~load:(fun c -> Ycsb.load c cfg)
    ~body:(fun client rng -> Ycsb.run_txn_verified client rng cfg)

let fig4a () =
  let rows =
    List.map
      (fun ops ->
        let r = run_glassdb_phases ~ops () in
        Common.check_no_failures r;
        string_of_int ops :: phase_cells r.Driver.r_phase_stats)
      [ 2; 4; 8; 16; 32 ]
  in
  Report.table
    ~title:"Fig 4(a): GlassDB phase latency vs transaction size (us)"
    ~note:"persist and get-proof are per key"
    ~header:[ "ops/txn"; "prepare"; "commit"; "persist"; "get-proof" ]
    rows

let fig4b () =
  let rows =
    List.map
      (fun mix ->
        let r = run_glassdb_phases ~mix () in
        Ycsb.mix_name mix :: phase_cells r.Driver.r_phase_stats)
      [ Ycsb.Read_heavy; Ycsb.Balanced; Ycsb.Write_heavy ]
  in
  Report.table ~title:"Fig 4(b): GlassDB phase latency vs workload mix (us)"
    ~header:[ "mix"; "prepare"; "commit"; "persist"; "get-proof" ]
    rows

let fig4c () =
  let rows =
    List.map
      (fun shards ->
        let r = run_glassdb_phases ~shards ~clients:(6 * shards) () in
        string_of_int shards :: phase_cells r.Driver.r_phase_stats)
      [ 1; 2; 4; 8 ]
  in
  Report.table ~title:"Fig 4(c): GlassDB phase latency vs number of nodes (us)"
    ~header:[ "nodes"; "prepare"; "commit"; "persist"; "get-proof" ]
    rows

let fig4d () =
  let rows =
    List.map
      (fun interval ->
        let r = run_glassdb_phases ~interval () in
        Report.f0 (interval *. 1000.) :: phase_cells r.Driver.r_phase_stats)
      [ 0.01; 0.04; 0.16; 0.64; 1.28 ]
  in
  Report.table
    ~title:"Fig 4(d): GlassDB phase latency vs persist interval (us)"
    ~note:"longer intervals batch more keys per block: per-key persist cost drops"
    ~header:[ "interval ms"; "prepare"; "commit"; "persist"; "get-proof" ]
    rows

(* --- Figure 5: client verification cost vs delay --- *)

let fig5 () =
  let rows =
    List.map
      (fun delay ->
        let params = Common.params ~persist_interval:0.01 ~verify_delay:delay () in
        let setup = Common.setup Adapters.glassdb params in
        let r = Driver.run_verified setup (Common.ycsb ()) ~pick:Ycsb.workload_x in
        Common.check_no_failures r;
        let keys = max 1 r.Driver.r_verified_keys in
        [ Report.f0 (delay *. 1000.);
          Report.ms (Glassdb_util.Stats.mean r.Driver.r_verify_latency);
          Report.kb (int_of_float (Glassdb_util.Stats.mean r.Driver.r_proof_bytes));
          Report.f2
            (float_of_int
               (int_of_float (Glassdb_util.Stats.total r.Driver.r_proof_bytes))
             /. float_of_int keys);
          Report.f2
            (float_of_int r.Driver.r_verified_keys
             /. float_of_int (max 1 r.Driver.r_verifications)) ])
      [ 0.01; 0.08; 0.32; 0.64; 1.28 ]
  in
  Report.table
    ~title:"Fig 5: client verification cost vs delay"
    ~note:
      "longer delays batch more keys per proof: total and per-batch size \
       grow, per-key bytes shrink"
    ~header:[ "delay ms"; "verify ms"; "batch KB"; "bytes/key"; "keys/batch" ]
    rows

(* --- Figure 6: delay impact on overall performance --- *)

let fig6a () =
  let rows =
    List.concat_map
      (fun mix ->
        List.map
          (fun interval ->
            let params =
              Common.params ~persist_interval:interval ~verify_delay:1.28 ()
            in
            let setup = Common.setup Adapters.glassdb params in
            let cfg = Common.ycsb ~mix () in
            let r =
              Driver.run_transactional setup
                ~load:(fun c -> Ycsb.load c cfg)
                ~body:(fun client rng -> Ycsb.run_txn_verified client rng cfg)
            in
            [ Ycsb.mix_name mix;
              Report.f0 (interval *. 1000.);
              Report.f0 r.Driver.r_throughput;
              Printf.sprintf "%.1f%%" (100. *. r.Driver.r_abort_rate) ])
          [ 0.01; 0.08; 0.32; 1.28 ])
      [ Ycsb.Read_heavy; Ycsb.Balanced; Ycsb.Write_heavy ]
  in
  Report.table
    ~title:"Fig 6(a): GlassDB throughput vs persist interval"
    ~note:"write-heavy suffers at long intervals (abort rate climbs)"
    ~header:[ "mix"; "interval ms"; "txn/s"; "aborts" ]
    rows

let fig6b () =
  let rows =
    List.map
      (fun delay ->
        let params = Common.params ~persist_interval:0.01 ~verify_delay:delay () in
        let setup = Common.setup Adapters.glassdb params in
        let r = Driver.run_verified setup (Common.ycsb ()) ~pick:Ycsb.workload_x in
        [ Report.f0 (delay *. 1000.); Report.f0 r.Driver.r_throughput ])
      [ 0.01; 0.08; 0.32; 0.8; 1.28 ]
  in
  Report.table
    ~title:"Fig 6(b): GlassDB verified-op throughput vs verification delay"
    ~note:"peaks then dips once batched proofs dominate the network"
    ~header:[ "delay ms"; "ops/s" ]
    rows

(* --- Figure 7: server and client cost vs baselines --- *)

let fig7 () =
  let run sys =
    let params = Common.params ~persist_interval:0.05 () in
    let setup = Common.setup sys params in
    let cfg = Common.ycsb () in
    Driver.run_verified setup cfg ~pick:Ycsb.workload_x
  in
  let results = List.map run Adapters.all_transactional in
  Report.table
    ~title:"Fig 7(a): phase latency breakdown vs baselines (us)"
    ~note:"QLDB*'s persist cost is inside commit (synchronous Merkle update)"
    ~header:[ "system"; "prepare"; "commit"; "persist"; "get-proof" ]
    (List.map
       (fun (r : Driver.result) -> r.Driver.r_name :: phase_cells r.Driver.r_phase_stats)
       results);
  Report.table
    ~title:"Fig 7(b,c): verification latency and per-key proof size"
    ~header:[ "system"; "verify ms"; "proof KB/key"; "keys/batch" ]
    (List.map
       (fun (r : Driver.result) ->
         let keys = max 1 r.Driver.r_verified_keys in
         [ r.Driver.r_name;
           Report.ms (Glassdb_util.Stats.mean r.Driver.r_verify_latency);
           Report.kb
             (int_of_float
                (Glassdb_util.Stats.total r.Driver.r_proof_bytes
                 /. float_of_int keys));
           Report.f2
             (float_of_int r.Driver.r_verified_keys
              /. float_of_int (max 1 r.Driver.r_verifications)) ])
       results)

let fig7d () =
  (* Batch size is controlled through the persist interval; storage shrinks
     as snapshots cover more keys each. *)
  let rows =
    List.concat_map
      (fun sys ->
        List.map
          (fun interval ->
            let params = Common.params ~persist_interval:interval () in
            let setup = Common.setup sys params in
            let r = Driver.run_ycsb setup (Common.ycsb ~mix:Ycsb.Write_heavy ()) in
            let blocks = max 1 r.Driver.r_blocks in
            let keys_per_block =
              float_of_int (r.Driver.r_commits * 8) /. float_of_int blocks
            in
            [ r.Driver.r_name;
              Report.f0 (interval *. 1000.);
              Report.f0 keys_per_block;
              Report.mb r.Driver.r_storage_bytes ])
          [ 0.01; 0.05; 0.2; 0.8 ])
      [ Adapters.glassdb; Adapters.ledgerdb; Adapters.qldb ]
  in
  Report.table
    ~title:"Fig 7(d): storage consumption vs batch size"
    ~note:"GlassDB storage drops as batches grow (fewer snapshots)"
    ~header:[ "system"; "interval ms"; "keys/batch"; "storage MB" ]
    rows

(* --- Figure 8: impact of the design choices --- *)

let fig8 () =
  let run sys =
    let params = Common.params () in
    let setup = Common.setup sys params in
    let cfg = Common.ycsb () in
    Driver.run_transactional setup
      ~load:(fun c -> Ycsb.load c cfg)
      ~body:(fun client rng -> Ycsb.run_txn_verified client rng cfg)
  in
  let rows =
    List.map
      (fun sys ->
        let r = run sys in
        Common.check_no_failures r;
        Common.throughput_row r)
      [ Adapters.qldb; Adapters.glassdb_no_dv_no_ba; Adapters.ledgerdb;
        Adapters.glassdb_no_ba; Adapters.glassdb ]
  in
  Report.table
    ~title:"Fig 8: ablation of GlassDB's design choices"
    ~note:
      "two-level POS-tree alone > QLDB*; + deferred verification > \
       LedgerDB*; + batching = full GlassDB"
    ~header:[ "system"; "txn/s"; "aborts" ]
    rows

(* --- Figure 14: auditing cost --- *)

let fig14 () =
  (* The audit experiment drives the core library directly (the adapter
     interface hides the cluster and auditor). *)
  let rows =
    List.map
      (fun audit_interval ->
        let out = ref [] in
        Sim.run (fun () ->
            let cluster =
              Glassdb.Cluster.create
                (Glassdb.Config.make ~shards:4 ~persist_interval:0.02 ())
            in
            Glassdb.Cluster.start cluster;
            let auditor = Glassdb.Auditor.create cluster ~id:0 in
            let running = ref true in
            let master = Glassdb_util.Rng.create 17 in
            for i = 1 to 16 do
              Glassdb.Auditor.register_client auditor ~client:i
                ~pk:(Printf.sprintf "sk-%d" i);
              let c =
                Glassdb.Client.create cluster ~id:i
                  ~sk:(Printf.sprintf "sk-%d" i)
              in
              let rng = Glassdb_util.Rng.split master in
              Sim.spawn (fun () ->
                  while !running do
                    (match
                       Glassdb.Client.execute c (fun h ->
                           for _ = 1 to 5 do
                             Glassdb.Client.put h
                               (Printf.sprintf "user%08d"
                                  (Glassdb_util.Rng.int_below rng 2000))
                               "v"
                           done)
                     with
                     | Ok _ | Error _ -> ());
                    Sim.sleep 1e-4
                  done)
            done;
            (* Warm up, then audit rounds at the given interval. *)
            Sim.sleep 0.2;
            let lat = Glassdb_util.Stats.create () in
            let blocks = Glassdb_util.Stats.create () in
            for _ = 1 to 8 do
              Sim.sleep audit_interval;
              let reports = Glassdb.Auditor.audit_all auditor in
              List.iter
                (fun r ->
                  Glassdb_util.Stats.add lat r.Glassdb.Auditor.ar_latency;
                  Glassdb_util.Stats.add blocks
                    (float_of_int r.Glassdb.Auditor.ar_blocks);
                  if not r.Glassdb.Auditor.ar_ok then
                    Common.say "!! audit failure\n")
                reports
            done;
            running := false;
            Sim.sleep 0.05;
            Glassdb.Cluster.stop cluster;
            out :=
              [ Report.f0 (audit_interval *. 1000.);
                Report.ms (Glassdb_util.Stats.mean lat);
                Report.f2 (Glassdb_util.Stats.mean blocks) ];
            Sim.stop ());
        !out)
      [ 0.02; 0.04; 0.06; 0.08; 0.1 ]
  in
  Report.table
    ~title:"Fig 14: auditing cost vs audit interval"
    ~note:"latency and blocks verified per round grow with the interval"
    ~header:[ "interval ms"; "audit ms/shard"; "blocks/round" ]
    rows
