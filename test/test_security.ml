(* Security- and consistency-focused tests beyond the per-module suites:
   non-inclusion proofs, auditor forensics, serializability under
   concurrency, promise correctness in every persistence mode, and codec
   robustness of ledger proofs. *)

open Glassdb_util
module Kv = Txnkit.Kv
module Ledger = Glassdb.Ledger
module Node = Glassdb.Node
module Cluster = Glassdb.Cluster
module Client = Glassdb.Client
module Auditor = Glassdb.Auditor

let in_sim f =
  let out = ref None in
  Sim.run (fun () -> out := Some (f ()));
  Option.get !out

(* --- SMT non-inclusion --- *)

let test_smt_absence_proofs () =
  let t =
    Mtree.Smt.set_batch (Mtree.Smt.create ())
      (List.init 100 (fun i -> (Printf.sprintf "key%d" i, string_of_int i)))
  in
  let root = Mtree.Smt.root_hash t in
  List.iter
    (fun k ->
      let p = Mtree.Smt.prove_absent t k in
      if not (Mtree.Smt.verify_absent ~root ~key:k p) then
        Alcotest.failf "absence proof failed for %s" k;
      Alcotest.(check bool) "absence size positive" true
        (Mtree.Smt.absence_proof_size_bytes p > 0))
    [ "missing"; "key100"; "zzz"; "" ];
  (* A present key must not be provable absent. *)
  (match Mtree.Smt.prove_absent t "key42" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "prove_absent accepted a present key");
  (* An absence proof must not verify for a *present* key. *)
  let p = Mtree.Smt.prove_absent t "missing" in
  Alcotest.(check bool) "absence proof is key-bound" false
    (Mtree.Smt.verify_absent ~root ~key:"key42" p);
  Alcotest.(check bool) "absence proof is root-bound" false
    (Mtree.Smt.verify_absent ~root:(Hash.of_string "bogus") ~key:"missing" p)

let prop_smt_absence =
  QCheck.Test.make ~name:"smt absence proofs verify for random maps" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 50)
              (pair (string_of_size (Gen.int_range 1 6)) small_string))
    (fun kvs ->
      let t = Mtree.Smt.set_batch (Mtree.Smt.create ()) kvs in
      let root = Mtree.Smt.root_hash t in
      List.for_all
        (fun k ->
          match Mtree.Smt.get t k with
          | Some _ -> true
          | None -> Mtree.Smt.verify_absent ~root ~key:k (Mtree.Smt.prove_absent t k))
        [ "absent-a"; "absent-b"; "x" ])

let test_trillian_absence () =
  in_sim (fun () ->
      let t = Trillian.create Trillian.default_config in
      for i = 0 to 30 do
        ignore (Trillian.put t (Printf.sprintf "d%d" i) "cert")
      done;
      ignore (Trillian.sequence t);
      let d = Trillian.digest t in
      match Trillian.get_verified_absent t "unregistered.example" with
      | None -> Alcotest.fail "no absence proof"
      | Some p ->
        Alcotest.(check bool) "verified absent" true
          (Trillian.verify_absent ~digest:d ~key:"unregistered.example" p);
        Alcotest.(check bool) "absent proof rejects present key" false
          (Trillian.verify_absent ~digest:d ~key:"d7" p);
        Alcotest.(check bool) "present key has no absence proof" true
          (Trillian.get_verified_absent t "d7" = None))

(* --- ledger proof codecs against malicious bytes --- *)

let test_ledger_proof_codec_roundtrip_and_garbage () =
  let l = ref (Ledger.create (Ledger.config (Storage.Node_store.create ()))) in
  for b = 0 to 9 do
    l :=
      Ledger.append_block !l ~time:0.
        ~writes:
          (List.init 5 (fun i ->
               { Ledger.wkey = Printf.sprintf "k%d" i;
                 wvalue = Printf.sprintf "v%d.%d" b i;
                 wtid = "t" }))
        ~txns:[]
  done;
  let d = Ledger.digest !l in
  let p = Ledger.prove_current !l "k3" in
  let bytes = Codec.encode_to_string Ledger.proof_codec p in
  let p' = Codec.decode_of_string Ledger.proof_codec bytes in
  Alcotest.(check bool) "roundtripped proof verifies" true
    (Ledger.verify_current ~digest:d ~key:"k3" ~value:(Some "v9.3") p');
  (* Bit-flip every 13th byte and require decode failure or verify failure. *)
  let corrupt i =
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor 0x40) else c)
      bytes
  in
  let i = ref 1 in
  while !i < String.length bytes do
    (match Codec.decode_of_string Ledger.proof_codec (corrupt !i) with
     | exception _ -> ()
     | pc ->
       if Ledger.verify_current ~digest:d ~key:"k3" ~value:(Some "v9.3") pc
       then Alcotest.failf "corrupted proof at byte %d accepted" !i);
    i := !i + 13
  done;
  let ap = Ledger.prove_append_only !l ~old_block:4 in
  let ap_bytes = Codec.encode_to_string Ledger.append_proof_codec ap in
  let ap' = Codec.decode_of_string Ledger.append_proof_codec ap_bytes in
  Alcotest.(check int) "append proof size stable"
    (Ledger.append_proof_codec.Codec.size_bytes ap)
    (Ledger.append_proof_codec.Codec.size_bytes ap')

let test_ledger_batch_proof_dedup () =
  let l = ref (Ledger.create (Ledger.config (Storage.Node_store.create ()))) in
  for b = 0 to 4 do
    l :=
      Ledger.append_block !l ~time:0.
        ~writes:
          (List.init 40 (fun i ->
               { Ledger.wkey = Printf.sprintf "key-%03d" i;
                 wvalue = string_of_int b;
                 wtid = "t" }))
        ~txns:[]
  done;
  let keys = List.init 10 (Printf.sprintf "key-%03d") in
  let separate =
    List.fold_left
      (fun a k -> a + Ledger.proof_codec.Codec.size_bytes (Ledger.prove_current !l k))
      0 keys
  in
  let batch = Ledger.prove_inclusion_batch !l keys ~block:(Ledger.latest_block !l) in
  let batched = Ledger.batch_proof_codec.Codec.size_bytes batch in
  Alcotest.(check bool)
    (Printf.sprintf "batching shares chunks (%d < %d / 2)" batched separate)
    true (batched < separate / 2);
  Alcotest.(check bool) "batch verifies" true
    (Ledger.verify_inclusion_batch ~digest:(Ledger.digest !l) batch)

(* --- verifiable scans on the ledger --- *)

let test_ledger_verified_scan () =
  let l = ref (Ledger.create (Ledger.config (Storage.Node_store.create ()))) in
  for b = 0 to 7 do
    l :=
      Ledger.append_block !l ~time:0.
        ~writes:
          (List.init 30 (fun i ->
               { Ledger.wkey = Printf.sprintf "acct-%03d" i;
                 wvalue = Printf.sprintf "%d.%d" b i;
                 wtid = "t" }))
        ~txns:[]
  done;
  let d = Ledger.digest !l in
  let lo = "acct-005" and hi = "acct-015" in
  let rows = Ledger.scan !l ~lo ~hi in
  Alcotest.(check int) "row count" 10 (List.length rows);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "latest values" true
        (String.length v > 1 && v.[0] = '7'))
    rows;
  let p = Ledger.prove_scan !l ~lo ~hi () in
  Alcotest.(check bool) "scan proof verifies" true
    (Ledger.verify_scan ~digest:d ~lo ~hi ~rows p);
  (* Omission, injection, and stale values are all rejected. *)
  Alcotest.(check bool) "omission rejected" false
    (Ledger.verify_scan ~digest:d ~lo ~hi ~rows:(List.tl rows) p);
  Alcotest.(check bool) "injection rejected" false
    (Ledger.verify_scan ~digest:d ~lo ~hi
       ~rows:(rows @ [ ("acct-014x", "fake") ]) p);
  let stale = List.map (fun (k, _) -> (k, "0.0")) rows in
  Alcotest.(check bool) "stale values rejected" false
    (Ledger.verify_scan ~digest:d ~lo ~hi ~rows:stale p);
  (* Historical scan at an earlier block. *)
  let rows4 = Ledger.scan ~block:4 !l ~lo ~hi in
  let p4 = Ledger.prove_scan !l ~lo ~hi ~block:4 () in
  Alcotest.(check bool) "historical scan verifies" true
    (Ledger.verify_scan ~digest:d ~lo ~hi ~rows:rows4 p4);
  Alcotest.(check bool) "old rows differ" true (rows4 <> rows)

(* --- auditor forensics --- *)

let with_cluster ?(shards = 2) ?(batching = true) ?(sync_persist = false)
    ?rpc_timeout ?rpc_retries ?verify_delay ?faults f =
  in_sim (fun () ->
      let cl =
        Cluster.create
          (Glassdb.Config.make ~shards ~batching ~sync_persist ?rpc_timeout
             ?rpc_retries ?verify_delay ?faults ())
      in
      Cluster.start cl;
      let v = f cl in
      Cluster.stop cl;
      v)

let test_auditor_gossip_consistent_views () =
  with_cluster (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"pk" in
      let a1 = Auditor.create cl ~id:1 and a2 = Auditor.create cl ~id:2 in
      List.iter
        (fun a -> Auditor.register_client a ~client:1 ~pk:"pk")
        [ a1; a2 ];
      for i = 0 to 20 do
        ignore
          (Client.execute c (fun h ->
               Client.put h (Printf.sprintf "g%d" (i mod 5)) (string_of_int i)))
      done;
      Sim.sleep 0.2;
      ignore (Auditor.audit_all a1);
      (* a2 lags behind a1 deliberately. *)
      Alcotest.(check bool) "gossip between honest auditors" true
        (Auditor.gossip a1 a2);
      ignore (Auditor.audit_all a2);
      Alcotest.(check bool) "gossip after catch-up" true (Auditor.gossip a1 a2);
      Alcotest.(check int) "no violations" 0
        (Auditor.failures a1 + Auditor.failures a2))

let test_user_digest_from_the_future () =
  with_cluster (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"pk" in
      let a = Auditor.create cl ~id:1 in
      Auditor.register_client a ~client:1 ~pk:"pk";
      ignore (Client.execute c (fun h -> Client.put h "f" "1"));
      Sim.sleep 0.2;
      (* Client verifies so its digest advances past the auditor's. *)
      (match Client.verified_get_latest c "f" with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "verified get: %s" (Error.to_string e));
      let shard = Cluster.shard_of_key cl "f" in
      let user_digest = Client.digest_of_shard c shard in
      Alcotest.(check bool) "auditor catches up and accepts" true
        (Auditor.verify_user_digest a ~shard user_digest))

let test_client_gossip () =
  with_cluster (fun cl ->
      let a = Client.create cl ~id:1 ~sk:"k1" in
      let b = Client.create cl ~id:2 ~sk:"k2" in
      ignore (Client.execute a (fun h -> Client.put h "gs" "1"));
      Sim.sleep 0.2;
      (* a verifies (digest advances); b is stale. *)
      (match Client.verified_get_latest a "gs" with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "verified get: %s" (Error.to_string e));
      (match Client.gossip a b with
       | Ok () -> ()
       | Error e ->
         Alcotest.failf "gossip between honest users: %s" (Error.to_string e));
      let shard = Cluster.shard_of_key cl "gs" in
      Alcotest.(check bool) "stale user caught up" true
        (Ledger.digest_equal
           (Client.digest_of_shard a shard)
           (Client.digest_of_shard b shard));
      Alcotest.(check int) "no violations" 0
        (Client.verification_failures a + Client.verification_failures b))

let test_gossip_fork_detected_under_packet_loss () =
  (* A user restoring a forked digest must see [Proof_invalid] from gossip
     even when the lossy link forces proof fetches to retry. *)
  let faults = Faults.create ~drop:0.05 ~seed:9 () in
  with_cluster ~shards:1 ~rpc_timeout:0.05 ~rpc_retries:6 ~faults (fun cl ->
      let mk id sk = Client.create cl ~id ~sk in
      let a = mk 1 "k1" and b = mk 2 "k2" in
      for i = 0 to 9 do
        ignore
          (Client.execute a (fun h -> Client.put h "gf" (string_of_int i)))
      done;
      Sim.sleep 0.3;
      (match Client.verified_get_latest a "gf" with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "verified get: %s" (Error.to_string e));
      (* b restores a fork: same block number as a's view, different root. *)
      let d = Client.digest_of_shard a 0 in
      Client.adopt_digest b ~shard:0
        { d with Ledger.root = Hash.kv "evil" "root" };
      (match Client.gossip a b with
       | Error (Error.Proof_invalid _) -> ()
       | Ok () -> Alcotest.fail "forked digest passed gossip"
       | Error e ->
         Alcotest.failf "expected Proof_invalid, got %s" (Error.to_string e));
      Alcotest.(check bool) "violation counted" true
        (Client.verification_failures a > 0))

let test_checkpoint_truncates_wal () =
  with_cluster ~shards:1 (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"k" in
      for i = 0 to 19 do
        ignore (Client.execute c (fun h -> Client.put h (Printf.sprintf "w%d" i) "v"))
      done;
      Sim.sleep 0.3 (* everything persisted *);
      let nd = Cluster.node cl 0 in
      let before = Node.wal_records nd in
      Alcotest.(check bool) "wal non-empty before checkpoint" true (before > 0);
      Node.checkpoint nd;
      Alcotest.(check int) "wal empty after checkpoint" 0 (Node.wal_records nd);
      (* Crash + recovery after a checkpoint must still serve all data
         (it lives in the ledger now). *)
      Cluster.crash_node cl 0;
      Cluster.recover_node cl 0;
      Sim.sleep 0.2;
      match Client.execute c (fun h -> Client.get h "w7") with
      | Ok (Some "v", _) -> ()
      | _ -> Alcotest.fail "data lost after checkpointed recovery")

(* --- promises under every persistence mode --- *)

let promise_roundtrip ?batching ?sync_persist () =
  with_cluster ?batching ?sync_persist ~verify_delay:0.05 (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"k" in
      (* Write the same keys repeatedly so multi-version prediction is
         exercised. *)
      for i = 0 to 29 do
        match
          Client.execute c (fun h ->
              Client.put h (Printf.sprintf "p%d" (i mod 4)) (string_of_int i))
        with
        | Ok (_, promises) -> Client.queue_promises c promises
        | Error e -> Alcotest.failf "commit %d: %s" i (Error.to_string e)
      done;
      Sim.sleep 0.5;
      let vs = Client.flush_verifications c () in
      let keys = List.fold_left (fun a v -> a + v.Client.v_keys) 0 vs in
      Alcotest.(check int) "all promises verified" 30 keys;
      Alcotest.(check int) "no failures" 0 (Client.verification_failures c))

let test_promises_batched_mode () = promise_roundtrip ()

let test_no_ba_predictions_with_readonly_participants () =
  (* Regression: a cross-shard transaction whose slice on some shard is
     read-only must not consume a block position there (it never produces
     a block), or every later promise on that shard lands one block late. *)
  with_cluster ~shards:2 ~batching:false ~verify_delay:0.02 (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"k" in
      (* Find keys on both shards. *)
      let key_on shard =
        let rec go i =
          let k = Printf.sprintf "ro%d" i in
          if Cluster.shard_of_key cl k = shard then k else go (i + 1)
        in
        go 0
      in
      let k0 = key_on 0 and k1 = key_on 1 in
      ignore (Client.execute c (fun h -> Client.put h k0 "init0"));
      ignore (Client.execute c (fun h -> Client.put h k1 "init1"));
      Sim.sleep 0.2;
      for i = 0 to 19 do
        (* Read shard 0, write shard 1: shard 0's slice is read-only. *)
        (match
           Client.execute c (fun h ->
               ignore (Client.get h k0);
               Client.put h k1 (Printf.sprintf "w%d" i))
         with
         | Ok (_, ps) -> Client.queue_promises c ps
         | Error e -> Alcotest.failf "txn %d: %s" i (Error.to_string e));
        (* Interleave writes on shard 0 whose promises must stay exact. *)
        (match
           Client.execute c (fun h -> Client.put h k0 (Printf.sprintf "x%d" i))
         with
         | Ok (_, ps) -> Client.queue_promises c ps
         | Error e -> Alcotest.failf "shard0 txn %d: %s" i (Error.to_string e))
      done;
      Sim.sleep 0.5;
      let vs = Client.flush_verifications c () in
      List.iter
        (fun v ->
          if not v.Client.v_ok then Alcotest.fail "promise verification failed")
        vs;
      Alcotest.(check int) "all verified" 40
        (List.fold_left (fun a v -> a + v.Client.v_keys) 0 vs);
      Alcotest.(check int) "no failures" 0 (Client.verification_failures c))

let test_promises_no_batching () =
  promise_roundtrip ~batching:false ()

let test_promises_sync_persist () =
  promise_roundtrip ~sync_persist:true ()

(* --- serializability: concurrent increments never lose updates --- *)

let test_serializable_counter () =
  with_cluster ~shards:2 (fun cl ->
      let setup = Client.create cl ~id:0 ~sk:"k" in
      ignore (Client.execute setup (fun h -> Client.put h "ctr" "0"));
      let committed = ref 0 in
      let finished = ref 0 in
      let done_iv = Sim.Ivar.create () in
      let workers = 6 in
      for w = 1 to workers do
        Sim.spawn (fun () ->
            let c = Client.create cl ~id:w ~sk:"k" in
            for _ = 1 to 20 do
              match
                Client.execute c (fun h ->
                    let v = int_of_string (Option.get (Client.get h "ctr")) in
                    Client.put h "ctr" (string_of_int (v + 1)))
              with
              | Ok _ -> incr committed
              | Error _ -> ()
            done;
            incr finished;
            if !finished = workers then Sim.Ivar.fill done_iv ())
      done;
      Sim.Ivar.read done_iv;
      match Client.execute setup (fun h -> Client.get h "ctr") with
      | Ok (Some v, _) ->
        Alcotest.(check int) "no lost updates" !committed (int_of_string v)
      | _ -> Alcotest.fail "final read failed")

let prop_occ_no_lost_updates =
  QCheck.Test.make ~name:"occ: concurrent increments are serializable"
    ~count:10
    QCheck.(int_range 2 5)
    (fun workers ->
      with_cluster ~shards:1 (fun cl ->
          let setup = Client.create cl ~id:0 ~sk:"k" in
          ignore (Client.execute setup (fun h -> Client.put h "x" "0"));
          let committed = ref 0 and finished = ref 0 in
          let done_iv = Sim.Ivar.create () in
          for w = 1 to workers do
            Sim.spawn (fun () ->
                let c = Client.create cl ~id:w ~sk:"k" in
                for _ = 1 to 8 do
                  match
                    Client.execute c (fun h ->
                        let v = int_of_string (Option.get (Client.get h "x")) in
                        Client.put h "x" (string_of_int (v + 1)))
                  with
                  | Ok _ -> incr committed
                  | Error _ -> ()
                done;
                incr finished;
                if !finished = workers then Sim.Ivar.fill done_iv ())
          done;
          Sim.Ivar.read done_iv;
          match Client.execute setup (fun h -> Client.get h "x") with
          | Ok (Some v, _) -> int_of_string v = !committed
          | _ -> false))

(* --- WAL-based recovery property --- *)

let prop_recovery_preserves_committed_writes =
  QCheck.Test.make ~name:"crash+recover never loses committed writes"
    ~count:10
    QCheck.(int_range 1 30)
    (fun n ->
      with_cluster ~shards:1 ~rpc_timeout:0.05 (fun cl ->
          let c = Client.create cl ~id:1 ~sk:"k" in
          let expected = Hashtbl.create 16 in
          for i = 0 to n - 1 do
            let k = Printf.sprintf "r%d" (i mod 7) in
            match
              Client.execute c (fun h -> Client.put h k (string_of_int i))
            with
            | Ok _ -> Hashtbl.replace expected k (string_of_int i)
            | Error _ -> ()
          done;
          Cluster.crash_node cl 0;
          Sim.sleep 0.1;
          Cluster.recover_node cl 0;
          Sim.sleep 0.3;
          Hashtbl.fold
            (fun k v acc ->
              acc
              &&
              match Client.execute c (fun h -> Client.get h k) with
              | Ok (Some v', _) -> String.equal v v'
              | _ -> false)
            expected true))

(* --- dist-layer timeout handling --- *)

let test_dead_shard_read_times_out_not_hangs () =
  with_cluster ~shards:2 ~rpc_timeout:0.05 (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"k" in
      ignore (Client.execute c (fun h -> Client.put h "a" "1"));
      Cluster.crash_node cl (Cluster.shard_of_key cl "a");
      let t0 = Sim.now () in
      (match Client.execute c (fun h -> Client.get h "a") with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "read from dead shard succeeded");
      (* Bounded by the cluster RPC timeout (1 s default), not hanging. *)
      Alcotest.(check bool) "bounded by timeout" true (Sim.now () -. t0 < 2.5))

(* A crashed shard must not pass for a key that was never written. *)
let test_dead_shard_history_is_an_error () =
  with_cluster ~shards:2 ~rpc_timeout:0.05 (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"k" in
      ignore (Client.execute c (fun h -> Client.put h "a" "1"));
      Sim.sleep 0.2;
      (match Client.get_history c "a" ~n:5 with
       | Ok [ ("1", _) ] -> ()
       | Ok l -> Alcotest.failf "%d versions before the crash" (List.length l)
       | Error e -> Alcotest.failf "live shard: %s" (Error.to_string e));
      Cluster.crash_node cl (Cluster.shard_of_key cl "a");
      match Client.get_history c "a" ~n:5 with
      | Error _ -> ()
      | Ok l ->
        Alcotest.failf "dead shard answered with %d versions" (List.length l))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "security"
    [ ("smt-absence",
       [ Alcotest.test_case "absence proofs" `Quick test_smt_absence_proofs;
         Alcotest.test_case "trillian verified absence" `Quick test_trillian_absence ]
       @ qsuite [ prop_smt_absence ]);
      ("ledger-proofs",
       [ Alcotest.test_case "codec roundtrip + corruption" `Quick
           test_ledger_proof_codec_roundtrip_and_garbage;
         Alcotest.test_case "batched proofs dedup chunks" `Quick
           test_ledger_batch_proof_dedup;
         Alcotest.test_case "verifiable range scan" `Quick
           test_ledger_verified_scan ]);
      ("auditor",
       [ Alcotest.test_case "gossip consistent views" `Quick
           test_auditor_gossip_consistent_views;
         Alcotest.test_case "user digest ahead of auditor" `Quick
           test_user_digest_from_the_future ]);
      ("gossip-checkpoint",
       [ Alcotest.test_case "user gossip" `Quick test_client_gossip;
         Alcotest.test_case "fork under packet loss" `Quick
           test_gossip_fork_detected_under_packet_loss;
         Alcotest.test_case "checkpoint + recovery" `Quick
           test_checkpoint_truncates_wal ]);
      ("promises",
       [ Alcotest.test_case "batched mode" `Quick test_promises_batched_mode;
         Alcotest.test_case "no-BA read-only participants" `Quick
           test_no_ba_predictions_with_readonly_participants;
         Alcotest.test_case "no-batching mode" `Quick test_promises_no_batching;
         Alcotest.test_case "sync-persist mode" `Quick test_promises_sync_persist ]);
      ("serializability",
       [ Alcotest.test_case "concurrent counter" `Quick test_serializable_counter ]
       @ qsuite [ prop_occ_no_lost_updates ]);
      ("recovery",
       qsuite [ prop_recovery_preserves_committed_writes ]
       @ [ Alcotest.test_case "dead shard times out" `Quick
             test_dead_shard_read_times_out_not_hangs;
           Alcotest.test_case "dead shard history is an error" `Quick
             test_dead_shard_history_is_an_error ]) ]
