(* Unit tests for the transaction kit: OCC validation verdicts, the
   multi-version committed-data map, and signed transactions. *)

module Kv = Txnkit.Kv
module Occ = Txnkit.Occ
module Cmap = Txnkit.Committed_map

let rw ?(reads = []) ?(writes = []) () = { Kv.reads; writes }

let versions table k =
  match List.assoc_opt k table with Some v -> v | None -> -1

(* --- OCC --- *)

let test_occ_happy_path () =
  let occ = Occ.create () in
  let current = versions [ ("a", 3); ("b", 7) ] in
  (match
     Occ.prepare occ ~tid:"t1" ~current_version:current
       (rw ~reads:[ ("a", 3) ] ~writes:[ ("b", "nb") ] ())
   with
   | Occ.Ok -> ()
   | Occ.Conflict r -> Alcotest.failf "unexpected conflict: %s" r);
  Alcotest.(check bool) "b locked" true (Occ.is_write_locked occ "b");
  (match Occ.commit occ ~tid:"t1" with
   | Some r -> Alcotest.(check int) "writes returned" 1 (List.length r.Kv.writes)
   | None -> Alcotest.fail "commit lost the rw set");
  Alcotest.(check bool) "lock released" false (Occ.is_write_locked occ "b");
  Alcotest.(check int) "nothing prepared" 0 (Occ.prepared_count occ)

let expect_conflict name verdict =
  match verdict with
  | Occ.Conflict _ -> ()
  | Occ.Ok -> Alcotest.failf "%s should conflict" name

let test_occ_conflicts () =
  let occ = Occ.create () in
  let current = versions [ ("a", 3); ("b", 7) ] in
  (* Stale read. *)
  expect_conflict "stale read"
    (Occ.prepare occ ~tid:"t0" ~current_version:current
       (rw ~reads:[ ("a", 2) ] ()));
  (* t1 prepares a write on b and a read of a. *)
  (match
     Occ.prepare occ ~tid:"t1" ~current_version:current
       (rw ~reads:[ ("a", 3) ] ~writes:[ ("b", "x") ] ())
   with
   | Occ.Ok -> ()
   | Occ.Conflict r -> Alcotest.failf "t1: %s" r);
  (* Write-write on b. *)
  expect_conflict "write-write"
    (Occ.prepare occ ~tid:"t2" ~current_version:current
       (rw ~writes:[ ("b", "y") ] ()));
  (* Read of a key someone prepared to write. *)
  expect_conflict "read-write"
    (Occ.prepare occ ~tid:"t3" ~current_version:current
       (rw ~reads:[ ("b", 7) ] ()));
  (* Write of a key someone prepared to read. *)
  expect_conflict "write-read"
    (Occ.prepare occ ~tid:"t4" ~current_version:current
       (rw ~writes:[ ("a", "z") ] ()));
  (* Duplicate prepare of the same tid. *)
  expect_conflict "duplicate"
    (Occ.prepare occ ~tid:"t1" ~current_version:current (rw ()));
  (* After abort, the locks are gone and t2 succeeds. *)
  Occ.abort occ ~tid:"t1";
  (match
     Occ.prepare occ ~tid:"t2'" ~current_version:current
       (rw ~writes:[ ("b", "y") ] ())
   with
   | Occ.Ok -> ()
   | Occ.Conflict r -> Alcotest.failf "after abort: %s" r)

let test_occ_own_read_write () =
  (* A transaction may read and write the same key. *)
  let occ = Occ.create () in
  match
    Occ.prepare occ ~tid:"t" ~current_version:(fun _ -> 5)
      (rw ~reads:[ ("k", 5) ] ~writes:[ ("k", "v") ] ())
  with
  | Occ.Ok -> ()
  | Occ.Conflict r -> Alcotest.failf "self rw: %s" r

let test_occ_clear () =
  let occ = Occ.create () in
  ignore
    (Occ.prepare occ ~tid:"t" ~current_version:(fun _ -> -1)
       (rw ~writes:[ ("k", "v") ] ()));
  Occ.clear occ;
  Alcotest.(check int) "cleared" 0 (Occ.prepared_count occ);
  Alcotest.(check bool) "unlocked" false (Occ.is_write_locked occ "k")

(* --- committed map --- *)

let test_cmap_prediction_and_drain () =
  let m = Cmap.create () in
  (* Three versions of k land in consecutive blocks. *)
  let p1 = Cmap.predict m ~persisted_block:4 "k" in
  Cmap.add m ~predicted:p1 "k" "v1" "t1";
  let p2 = Cmap.predict m ~persisted_block:4 "k" in
  Cmap.add m ~predicted:p2 "k" "v2" "t2";
  let p3 = Cmap.predict m ~persisted_block:4 "k" in
  Cmap.add m ~predicted:p3 "k" "v3" "t3";
  Alcotest.(check (list int)) "consecutive predictions" [ 5; 6; 7 ] [ p1; p2; p3 ];
  Cmap.add m ~predicted:(Cmap.predict m ~persisted_block:4 "other") "other" "x" "t4";
  Alcotest.(check int) "max depth" 3 (Cmap.max_depth m);
  (match Cmap.latest m "k" with
   | Some ("v3", 7, "t3") -> ()
   | _ -> Alcotest.fail "latest should be newest pending");
  (* Layer 1 = oldest version of every key. *)
  let l1 = Cmap.drain_layer m in
  Alcotest.(check (list string)) "layer keys sorted" [ "k"; "other" ]
    (List.map (fun (k, _, _) -> k) l1);
  Alcotest.(check string) "oldest first" "v1"
    (match l1 with (_, v, _) :: _ -> v | [] -> "?");
  let l2 = Cmap.drain_layer m in
  Alcotest.(check int) "layer 2 only k" 1 (List.length l2);
  ignore (Cmap.drain_layer m);
  Alcotest.(check bool) "drained" true (Cmap.is_empty m)

let test_cmap_pop_key () =
  let m = Cmap.create () in
  Cmap.add m ~predicted:1 "k" "a" "t1";
  Cmap.add m ~predicted:2 "k" "b" "t2";
  (match Cmap.pop_key m "k" with
   | Some ("a", 1, "t1") -> ()
   | _ -> Alcotest.fail "fifo pop");
  Alcotest.(check int) "one left" 1 (Cmap.pending_versions m "k");
  Alcotest.(check bool) "absent key pops None" true (Cmap.pop_key m "z" = None)

(* --- signed transactions --- *)

let test_sign_verify_tamper () =
  let r = rw ~reads:[ ("a", 1) ] ~writes:[ ("b", "2") ] () in
  let stxn = Kv.sign ~sk:"secret" ~tid:"t9" ~client:3 r in
  Alcotest.(check bool) "valid signature" true
    (Kv.verify_signature ~pk:"secret" stxn);
  Alcotest.(check bool) "wrong key rejected" false
    (Kv.verify_signature ~pk:"other" stxn);
  let tampered = { stxn with Kv.rw = rw ~writes:[ ("b", "666") ] () } in
  Alcotest.(check bool) "tampered writes rejected" false
    (Kv.verify_signature ~pk:"secret" tampered);
  (* Codec roundtrip preserves validity. *)
  let bytes = Glassdb_util.Codec.to_string Kv.encode_signed_txn stxn in
  let stxn' = Glassdb_util.Codec.of_string Kv.decode_signed_txn bytes in
  Alcotest.(check bool) "roundtrip verifies" true
    (Kv.verify_signature ~pk:"secret" stxn');
  Alcotest.(check int) "byte size consistent" (String.length bytes)
    (Kv.signed_txn_bytes stxn)

let test_shard_mapping_stable () =
  for shards = 1 to 16 do
    for i = 0 to 50 do
      let k = Printf.sprintf "key-%d" i in
      let s = Kv.shard_of_key ~shards k in
      if s < 0 || s >= shards then Alcotest.failf "shard out of range";
      if s <> Kv.shard_of_key ~shards k then Alcotest.fail "unstable mapping"
    done
  done

let prop_rw_set_codec =
  QCheck.Test.make ~name:"rw-set codec roundtrip" ~count:100
    QCheck.(pair
              (list
                 (pair small_string
                    (frequency [ (1, always (-1)); (3, small_nat) ])))
              (list (pair small_string small_string)))
    (fun (reads, writes) ->
      let r = { Kv.reads; writes } in
      let s = Glassdb_util.Codec.to_string Kv.encode_rw_set r in
      Glassdb_util.Codec.of_string Kv.decode_rw_set s = r)

(* A read of an absent key records version -1; it must survive the codec,
   and every version >= 0 must keep its plain varint bytes. *)
let test_rw_set_codec_absent_version () =
  let module Codec = Glassdb_util.Codec in
  let encode reads = Codec.to_string Kv.encode_rw_set { Kv.reads; writes = [] } in
  let roundtrip reads =
    (Codec.of_string Kv.decode_rw_set (encode reads)).Kv.reads
  in
  let reads = [ ("a", -1); ("b", 0); ("c", 128); ("d", -1); ("e", 1 lsl 40) ] in
  Alcotest.(check (list (pair string int))) "roundtrip" reads (roundtrip reads);
  let plain =
    Codec.to_string
      (fun b () ->
        Codec.write_list b
          (fun b (k, v) ->
            Codec.write_string b k;
            Codec.write_varint b v)
          [ ("b", 0); ("c", 128) ];
        Codec.write_list b Codec.write_string [])
      ()
  in
  Alcotest.(check string) "versions >= 0 keep their bytes" plain
    (encode [ ("b", 0); ("c", 128) ]);
  Alcotest.(check string) "-1 is the two-byte zero" "\x01\x01a\x80\x00\x00"
    (encode [ ("a", -1) ]);
  match encode [ ("a", -2) ] with
  | _ -> Alcotest.fail "version -2 encoded"
  | exception Invalid_argument _ -> ()

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "txnkit"
    [ ("occ",
       [ Alcotest.test_case "happy path" `Quick test_occ_happy_path;
         Alcotest.test_case "conflict verdicts" `Quick test_occ_conflicts;
         Alcotest.test_case "own read+write" `Quick test_occ_own_read_write;
         Alcotest.test_case "clear" `Quick test_occ_clear ]);
      ("committed-map",
       [ Alcotest.test_case "prediction + drain" `Quick test_cmap_prediction_and_drain;
         Alcotest.test_case "pop_key fifo" `Quick test_cmap_pop_key ]);
      ("signatures",
       [ Alcotest.test_case "sign/verify/tamper" `Quick test_sign_verify_tamper;
         Alcotest.test_case "shard mapping stable" `Quick test_shard_mapping_stable;
         Alcotest.test_case "rw-set codec: absent-key version -1" `Quick
           test_rw_set_codec_absent_version ]
       @ qsuite [ prop_rw_set_codec ]) ]
