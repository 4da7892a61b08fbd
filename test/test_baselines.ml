(* Tests for the reimplemented baselines: QLDB*, LedgerDB*, Trillian. *)

module Kv = Txnkit.Kv

let in_sim f =
  let out = ref None in
  Sim.run (fun () -> out := Some (f ()));
  Option.get !out

(* --- QLDB* --- *)

let qldb_cluster ?(shards = 2) () =
  Glassdb.Config.dist Glassdb.Config.default Qldb.Cluster.create
    (Array.init shards (fun i -> Qldb.Node.create Qldb.default_config ~shard_id:i))

let test_qldb_txn_and_read () =
  in_sim (fun () ->
      let cl = qldb_cluster () in
      let c = Qldb.Cluster.Client.create cl ~id:1 ~sk:"k" in
      (match
         Qldb.Cluster.Client.execute c (fun h ->
             Qldb.Cluster.Client.put h "a" "1";
             Qldb.Cluster.Client.put h "b" "2")
       with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "commit: %s" (Glassdb_util.Error.to_string e));
      match Qldb.Cluster.Client.execute c (fun h -> Qldb.Cluster.Client.get h "a") with
      | Ok (v, _) -> Alcotest.(check (option string)) "read" (Some "1") v
      | Error e -> Alcotest.failf "read: %s" (Glassdb_util.Error.to_string e))

let test_qldb_current_proof () =
  in_sim (fun () ->
      let nd = Qldb.Node.create Qldb.default_config ~shard_id:0 in
      (* Commit a few transactions directly. *)
      let commit_one i k v =
        let tid = Printf.sprintf "t%d" i in
        let stxn =
          Kv.sign ~sk:"s" ~tid ~client:1
            { Kv.reads = []; writes = [ (k, v) ] }
        in
        (match Qldb.Node.prepare nd ~rw:stxn.Kv.rw stxn with
         | Txnkit.Occ.Ok -> Qldb.Node.commit nd tid
         | Txnkit.Occ.Conflict r -> Alcotest.failf "prepare %d: %s" i r)
      in
      commit_one 0 "x" "1";
      for i = 1 to 20 do
        commit_one i (Printf.sprintf "other%d" i) "v"
      done;
      commit_one 21 "x" "2";
      for i = 22 to 30 do
        commit_one i (Printf.sprintf "more%d" i) "v"
      done;
      let d = Qldb.Node.digest nd in
      match Qldb.Node.get_verified_latest nd "x" with
      | None -> Alcotest.fail "no proof"
      | Some p ->
        Alcotest.(check bool) "valid current proof" true
          (Qldb.Node.verify_current ~digest:d ~key:"x" ~value:"2" p);
        Alcotest.(check bool) "stale value rejected" false
          (Qldb.Node.verify_current ~digest:d ~key:"x" ~value:"1" p);
        (* Scan covers the 9 entries after x's last write. *)
        Alcotest.(check int) "scan length O(N - seq)" 9 (List.length p.Qldb.Node.cp_scan);
        (* A proof claiming an older entry as latest must fail: the scan it
           would need covers the later write of x. *)
        (match
           (* Forge: rebuild a proof for the first write of x. *)
           let size = Qldb.Node.log_size nd in
           ignore size;
           Qldb.Node.verify_current ~digest:d ~key:"x" ~value:"1"
             { p with Qldb.Node.cp_seq = 0 }
         with
         | false -> ()
         | true -> Alcotest.fail "forged stale proof accepted"))

let test_qldb_append_only () =
  in_sim (fun () ->
      let nd = Qldb.Node.create Qldb.default_config ~shard_id:0 in
      let commit_one i =
        let tid = Printf.sprintf "t%d" i in
        let stxn =
          Kv.sign ~sk:"s" ~tid ~client:1
            { Kv.reads = []; writes = [ (Printf.sprintf "k%d" i, "v") ] }
        in
        ignore (Qldb.Node.prepare nd ~rw:stxn.Kv.rw stxn);
        Qldb.Node.commit nd tid
      in
      for i = 0 to 9 do commit_one i done;
      let old = Qldb.Node.digest nd in
      for i = 10 to 19 do commit_one i done;
      let new_ = Qldb.Node.digest nd in
      let proof = Qldb.Node.append_only_proof nd ~old_size:old.Qldb.Node.size in
      Alcotest.(check bool) "append-only verifies" true
        (Qldb.Node.verify_append_only ~old ~new_ proof))

(* --- LedgerDB* --- *)

let test_ledgerdb_txn_batch_and_proof () =
  in_sim (fun () ->
      let nd = Ledgerdb.Node.create Ledgerdb.default_config ~shard_id:0 in
      let commit_one i k v =
        let tid = Printf.sprintf "t%d" i in
        let stxn =
          Kv.sign ~sk:"s" ~tid ~client:1 { Kv.reads = []; writes = [ (k, v) ] }
        in
        (match Ledgerdb.Node.prepare nd ~rw:stxn.Kv.rw stxn with
         | Txnkit.Occ.Ok -> Ledgerdb.Node.commit nd tid
         | Txnkit.Occ.Conflict r -> Alcotest.failf "prepare: %s" r)
      in
      commit_one 0 "x" "1";
      commit_one 1 "y" "7";
      commit_one 2 "x" "2";
      Alcotest.(check int) "journal" 3 (Ledgerdb.Node.journal_size nd);
      (* Before the batch runs, nothing is provable. *)
      Alcotest.(check bool) "no proof before batch" true
        (Ledgerdb.Node.get_verified_latest nd "x" = None);
      let folded = Ledgerdb.Node.flush_batch nd in
      Alcotest.(check int) "batch folded all" 3 folded;
      Alcotest.(check int) "one block" 1 (Ledgerdb.Node.block_count nd);
      let d = Ledgerdb.Node.digest nd in
      (match Ledgerdb.Node.get_verified_latest nd "x" with
       | None -> Alcotest.fail "no proof after batch"
       | Some p ->
         Alcotest.(check bool) "proof verifies" true
           (Ledgerdb.Node.verify_current ~digest:d ~key:"x" ~value:"2" p);
         Alcotest.(check bool) "wrong value rejected" false
           (Ledgerdb.Node.verify_current ~digest:d ~key:"x" ~value:"1" p);
         (* The proof carries one bAMT inclusion per version of x. *)
         Alcotest.(check int) "clue proofs = versions" 2
           (List.length p.Ledgerdb.Node.lp_clues));
      (* Reads see the latest value immediately (journal materialized). *)
      match Ledgerdb.Node.read nd "x" with
      | Some ("2", _) -> ()
      | _ -> Alcotest.fail "read of x")

let test_ledgerdb_proof_grows_with_versions () =
  in_sim (fun () ->
      let nd = Ledgerdb.Node.create Ledgerdb.default_config ~shard_id:0 in
      let commit_one i k v =
        let tid = Printf.sprintf "t%d" i in
        let stxn =
          Kv.sign ~sk:"s" ~tid ~client:1 { Kv.reads = []; writes = [ (k, v) ] }
        in
        ignore (Ledgerdb.Node.prepare nd ~rw:stxn.Kv.rw stxn);
        Ledgerdb.Node.commit nd tid
      in
      for i = 0 to 19 do
        commit_one i "hot" (string_of_int i)
      done;
      commit_one 20 "cold" "c";
      ignore (Ledgerdb.Node.flush_batch nd);
      let hot = Option.get (Ledgerdb.Node.get_verified_latest nd "hot") in
      let cold = Option.get (Ledgerdb.Node.get_verified_latest nd "cold") in
      Alcotest.(check bool) "hot-key proof much larger" true
        (Ledgerdb.Node.current_proof_bytes hot
         > 5 * Ledgerdb.Node.current_proof_bytes cold))

let test_ledgerdb_append_only () =
  in_sim (fun () ->
      let nd = Ledgerdb.Node.create Ledgerdb.default_config ~shard_id:0 in
      let commit_one i =
        let tid = Printf.sprintf "t%d" i in
        let stxn =
          Kv.sign ~sk:"s" ~tid ~client:1
            { Kv.reads = []; writes = [ (Printf.sprintf "k%d" i, "v") ] }
        in
        ignore (Ledgerdb.Node.prepare nd ~rw:stxn.Kv.rw stxn);
        Ledgerdb.Node.commit nd tid
      in
      for i = 0 to 9 do commit_one i done;
      ignore (Ledgerdb.Node.flush_batch nd);
      let old = Ledgerdb.Node.digest nd in
      for i = 10 to 19 do commit_one i done;
      ignore (Ledgerdb.Node.flush_batch nd);
      let new_ = Ledgerdb.Node.digest nd in
      let proof = Ledgerdb.Node.append_only_proof nd ~old_size:old.Ledgerdb.Node.d_size in
      Alcotest.(check bool) "append-only verifies" true
        (Ledgerdb.Node.verify_append_only ~old ~new_ proof))

(* --- Trillian --- *)

let test_trillian_put_sequence_get () =
  in_sim (fun () ->
      let t = Trillian.create Trillian.default_config in
      ignore (Trillian.put t "a" "1");
      ignore (Trillian.put t "b" "2");
      Alcotest.(check (option string)) "not visible before sequencing" None
        (Trillian.get t "a");
      Alcotest.(check int) "sequenced 2" 2 (Trillian.sequence t);
      Alcotest.(check (option string)) "visible after" (Some "1") (Trillian.get t "a");
      Alcotest.(check int) "log = 2 mutations + 1 root" 3 (Trillian.log_size t);
      Alcotest.(check int) "revision 0" 0 (Trillian.map_revision t))

let test_trillian_read_proof () =
  in_sim (fun () ->
      let t = Trillian.create Trillian.default_config in
      for i = 0 to 49 do
        ignore (Trillian.put t (Printf.sprintf "k%d" i) (string_of_int i))
      done;
      ignore (Trillian.sequence t);
      let d = Trillian.digest t in
      (match Trillian.get_verified t "k7" with
       | None -> Alcotest.fail "no proof"
       | Some (v, p) ->
         Alcotest.(check string) "value" "7" v;
         Alcotest.(check bool) "verifies" true
           (Trillian.verify_read ~digest:d ~key:"k7" ~value:v p);
         Alcotest.(check bool) "wrong value rejected" false
           (Trillian.verify_read ~digest:d ~key:"k7" ~value:"8" p);
         Alcotest.(check bool) "proof is O(log m)" true
           (Trillian.read_proof_bytes p < 8192));
      Alcotest.(check bool) "absent unproven" true
        (Trillian.get_verified t "missing" = None))

let test_trillian_append_only () =
  in_sim (fun () ->
      let t = Trillian.create Trillian.default_config in
      ignore (Trillian.put t "a" "1");
      ignore (Trillian.sequence t);
      let old = Trillian.digest t in
      ignore (Trillian.put t "b" "2");
      ignore (Trillian.sequence t);
      let new_ = Trillian.digest t in
      let p = Trillian.append_only_proof t ~old_size:old.Trillian.d_log_size in
      Alcotest.(check bool) "log consistency" true
        (Trillian.verify_append_only ~old ~new_ p))

(* --- shared distributed layer --- *)

let test_dist_conflict_between_clients () =
  in_sim (fun () ->
      let cl = qldb_cluster ~shards:1 () in
      let c1 = Qldb.Cluster.Client.create cl ~id:1 ~sk:"k1" in
      ignore (Qldb.Cluster.Client.execute c1 (fun h -> Qldb.Cluster.Client.put h "n" "0"));
      let oks = ref 0 in
      let done_ = Sim.Ivar.create () in
      let remaining = ref 2 in
      for i = 0 to 1 do
        Sim.spawn (fun () ->
            let c = Qldb.Cluster.Client.create cl ~id:(10 + i) ~sk:"k" in
            (match
               Qldb.Cluster.Client.execute c (fun h ->
                   let v = Option.get (Qldb.Cluster.Client.get h "n") in
                   Qldb.Cluster.Client.put h "n" (v ^ "!"))
             with
             | Ok _ -> incr oks
             | Error _ -> ());
            decr remaining;
            if !remaining = 0 then Sim.Ivar.fill done_ ())
      done;
      Sim.Ivar.read done_;
      Alcotest.(check int) "one winner" 1 !oks)

let () =
  Alcotest.run "baselines"
    [ ("qldb",
       [ Alcotest.test_case "txn and read" `Quick test_qldb_txn_and_read;
         Alcotest.test_case "current proof with scan" `Quick test_qldb_current_proof;
         Alcotest.test_case "append-only" `Quick test_qldb_append_only ]);
      ("ledgerdb",
       [ Alcotest.test_case "batch and proof" `Quick test_ledgerdb_txn_batch_and_proof;
         Alcotest.test_case "proof grows with versions" `Quick test_ledgerdb_proof_grows_with_versions;
         Alcotest.test_case "append-only" `Quick test_ledgerdb_append_only ]);
      ("trillian",
       [ Alcotest.test_case "put/sequence/get" `Quick test_trillian_put_sequence_get;
         Alcotest.test_case "read proof" `Quick test_trillian_read_proof;
         Alcotest.test_case "append-only" `Quick test_trillian_append_only ]);
      ("dist",
       [ Alcotest.test_case "occ conflict across clients" `Quick test_dist_conflict_between_clients ]) ]
