(* Tests for the POS-tree: lookup correctness, proofs, and the structural
   invariance / copy-on-write sharing properties that GlassDB's design
   depends on. *)

open Glassdb_util
open Postree

let mk ?(pattern_bits = 4) () =
  let store = Storage.Node_store.create () in
  (store, Pos_tree.config ~pattern_bits store)

let kvs_of n = List.init n (fun i -> (Printf.sprintf "key-%05d" i, Printf.sprintf "val-%d" i))

(* --- chunker --- *)

let test_chunker_deterministic () =
  let items =
    List.init 200 (fun i ->
        Chunker.item ~key:(Printf.sprintf "k%d" i) ~payload:"v")
  in
  let a = Chunker.chunk_seq ~pattern_bits:4 items in
  let b = Chunker.chunk_seq ~pattern_bits:4 items in
  Alcotest.(check bool) "same chunking" true (a = b);
  let total = List.fold_left (fun acc c -> acc + Array.length c) 0 a in
  Alcotest.(check int) "no items lost" 200 total;
  (* All chunks except possibly the last end at a boundary. *)
  let rec check = function
    | [] | [ _ ] -> ()
    | c :: rest ->
      if not (Chunker.is_boundary ~pattern_bits:4 c.(Array.length c - 1)) then
        Alcotest.fail "interior chunk does not end at boundary";
      check rest
  in
  check a

let test_chunker_boundary_depends_on_content () =
  let item = Chunker.item ~key:"some-key" ~payload:"some-value" in
  let b1 = Chunker.is_boundary ~pattern_bits:4 item in
  let b2 =
    Chunker.is_boundary ~pattern_bits:4
      (Chunker.item ~key:"some-key" ~payload:"other")
  in
  (* Not strictly guaranteed to differ for any single pair, but this
     specific pair does; the test pins the fingerprint behaviour. *)
  ignore b2;
  Alcotest.(check bool) "deterministic" b1
    (Chunker.is_boundary ~pattern_bits:4 item)

(* --- basic map behaviour --- *)

let test_empty_tree () =
  let _, cfg = mk () in
  let t = Pos_tree.empty cfg in
  Alcotest.(check bool) "is_empty" true (Pos_tree.is_empty t);
  Alcotest.(check int) "cardinal" 0 (Pos_tree.cardinal t);
  Alcotest.(check bool) "root is empty hash" true
    (Hash.equal (Pos_tree.root_hash t) Hash.empty);
  Alcotest.(check (option string)) "get" None (Pos_tree.get t "k");
  Alcotest.(check bool) "absence proof on empty" true
    (Pos_tree.verify ~root:Hash.empty ~key:"k" ~value:None (Pos_tree.prove t "k"))

let test_get_after_inserts () =
  let _, cfg = mk () in
  let kvs = kvs_of 1000 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  Alcotest.(check int) "cardinal" 1000 (Pos_tree.cardinal t);
  List.iter
    (fun (k, v) ->
      if Pos_tree.get t k <> Some v then Alcotest.failf "missing %s" k)
    kvs;
  Alcotest.(check (option string)) "absent key" None (Pos_tree.get t "zzz");
  Alcotest.(check (option string)) "absent key low" None (Pos_tree.get t "aaa");
  Alcotest.(check bool) "multi-level" true (Pos_tree.height t >= 2);
  Alcotest.(check (list (pair string string))) "bindings sorted" kvs
    (Pos_tree.bindings t)

let test_overwrite () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 100) in
  let t2 = Pos_tree.insert_batch t [ ("key-00050", "NEW") ] in
  Alcotest.(check (option string)) "new value" (Some "NEW") (Pos_tree.get t2 "key-00050");
  Alcotest.(check (option string)) "old snapshot intact" (Some "val-50")
    (Pos_tree.get t "key-00050");
  Alcotest.(check int) "cardinal unchanged" 100 (Pos_tree.cardinal t2);
  Alcotest.(check bool) "root changed" false
    (Hash.equal (Pos_tree.root_hash t) (Pos_tree.root_hash t2))

let test_batch_last_write_wins () =
  let _, cfg = mk () in
  let t =
    Pos_tree.insert_batch (Pos_tree.empty cfg) [ ("k", "first"); ("k", "second") ]
  in
  Alcotest.(check (option string)) "last wins" (Some "second") (Pos_tree.get t "k");
  Alcotest.(check int) "single key" 1 (Pos_tree.cardinal t)

(* --- structural invariance (the SIRI property) --- *)

let test_structural_invariance_incremental_vs_scratch () =
  let kvs = kvs_of 2000 in
  (* Build in one shot. *)
  let _, cfg1 = mk () in
  let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg1) kvs in
  (* Build in many unevenly-sized batches in a shuffled order. *)
  let rng = Rng.create 5 in
  let arr = Array.of_list kvs in
  Rng.shuffle rng arr;
  let _, cfg2 = mk () in
  let t2 = ref (Pos_tree.empty cfg2) in
  let i = ref 0 in
  while !i < Array.length arr do
    let n = 1 + Rng.int_below rng 97 in
    let batch = Array.to_list (Array.sub arr !i (min n (Array.length arr - !i))) in
    t2 := Pos_tree.insert_batch !t2 batch;
    i := !i + n
  done;
  Alcotest.(check bool) "same root regardless of history" true
    (Hash.equal (Pos_tree.root_hash t1) (Pos_tree.root_hash !t2));
  Alcotest.(check int) "same node count" (Pos_tree.stats_nodes t1)
    (Pos_tree.stats_nodes !t2)

let prop_invariance =
  QCheck.Test.make ~name:"root independent of insertion history" ~count:30
    QCheck.(pair small_int (int_range 1 300))
    (fun (seed, n) ->
      let kvs = List.init n (fun i -> (Printf.sprintf "k%04d" i, Printf.sprintf "v%d" i)) in
      let _, cfg1 = mk () in
      let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg1) kvs in
      let rng = Rng.create seed in
      let arr = Array.of_list kvs in
      Rng.shuffle rng arr;
      let _, cfg2 = mk () in
      let t2 = ref (Pos_tree.empty cfg2) in
      Array.iter (fun kv -> t2 := Pos_tree.insert_batch !t2 [ kv ]) arr;
      Hash.equal (Pos_tree.root_hash t1) (Pos_tree.root_hash !t2))

let prop_model =
  QCheck.Test.make ~name:"pos_tree agrees with map model" ~count:60
    QCheck.(list (pair (string_of_size (Gen.int_range 1 6)) small_string))
    (fun kvs ->
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      M.for_all (fun k v -> Pos_tree.get t k = Some v) m
      && Pos_tree.cardinal t = M.cardinal m
      && Pos_tree.bindings t = M.bindings m)

(* --- copy-on-write sharing --- *)

let test_snapshots_share_nodes () =
  let store, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 5000) in
  let bytes_before = Storage.Node_store.total_bytes store in
  let _t2 = Pos_tree.insert_batch t [ ("key-02500", "updated") ] in
  let delta = Storage.Node_store.total_bytes store - bytes_before in
  (* A single-key update must write only the root-to-leaf path, a small
     fraction of the ~5000-entry tree. *)
  Alcotest.(check bool) "delta is a path, not a tree" true
    (delta > 0 && delta < bytes_before / 10)

let test_identical_content_dedups_fully () =
  let store, cfg = mk () in
  let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 500) in
  let bytes1 = Storage.Node_store.total_bytes store in
  (* Rebuild the identical tree in the same store: everything dedups. *)
  let t2 = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 500) in
  Alcotest.(check int) "no new bytes" bytes1 (Storage.Node_store.total_bytes store);
  Alcotest.(check bool) "same root" true
    (Hash.equal (Pos_tree.root_hash t1) (Pos_tree.root_hash t2))

(* --- proofs --- *)

let test_proofs_presence_absence () =
  let _, cfg = mk () in
  let kvs = kvs_of 800 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  List.iteri
    (fun i (k, v) ->
      if i mod 37 = 0 then begin
        let p = Pos_tree.prove t k in
        if not (Pos_tree.verify ~root ~key:k ~value:(Some v) p) then
          Alcotest.failf "presence proof failed for %s" k;
        if Pos_tree.verify ~root ~key:k ~value:(Some "tampered") p then
          Alcotest.failf "tampered value accepted for %s" k;
        if Pos_tree.verify ~root ~key:k ~value:None p then
          Alcotest.failf "absence accepted for present %s" k;
        if Pos_tree.verify ~root:(Hash.of_string "bogus") ~key:k ~value:(Some v) p
        then Alcotest.failf "wrong root accepted for %s" k
      end)
    kvs;
  List.iter
    (fun k ->
      let p = Pos_tree.prove t k in
      if not (Pos_tree.verify ~root ~key:k ~value:None p) then
        Alcotest.failf "absence proof failed for %s" k)
    [ "absent"; "key-99999"; "a"; "key-00500x" ]

let test_proof_stale_snapshot_rejected_on_new_root () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 50) in
  let t2 = Pos_tree.insert_batch t [ ("key-00010", "new") ] in
  let stale = Pos_tree.prove t "key-00010" in
  Alcotest.(check bool) "stale proof fails on new root" false
    (Pos_tree.verify ~root:(Pos_tree.root_hash t2) ~key:"key-00010"
       ~value:(Some "val-10") stale)

let test_proof_codec_roundtrip () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 300) in
  let p = Pos_tree.prove t "key-00123" in
  let s = Codec.encode_to_string Pos_tree.proof_codec p in
  let p' = Codec.decode_of_string Pos_tree.proof_codec s in
  Alcotest.(check bool) "roundtrip verifies" true
    (Pos_tree.verify ~root:(Pos_tree.root_hash t) ~key:"key-00123"
       ~value:(Some "val-123") p');
  Alcotest.(check bool) "size positive" true
    (Pos_tree.proof_codec.Codec.size_bytes p > 0)

let test_proof_codecs_wire_format () =
  (* All three proof kinds share one wire format — a varint-framed list of
     serialized chunks — and one size model: each chunk plus a fixed
     4-byte frame.  Decoding and re-encoding is byte-identical. *)
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 300) in
  let c = Pos_tree.proof_codec in
  let check name p =
    let bytes = Codec.encode_to_string c p in
    let chunks =
      Codec.of_string (fun r -> Codec.read_list r Codec.read_string) bytes
    in
    Alcotest.(check bool) (name ^ " has chunks") true (chunks <> []);
    Alcotest.(check int) (name ^ " size model")
      (List.fold_left (fun acc s -> acc + String.length s + 4) 0 chunks)
      (c.Codec.size_bytes p);
    Alcotest.(check string) (name ^ " decode roundtrips") bytes
      (Codec.encode_to_string c (Codec.decode_of_string c bytes))
  in
  check "single-key proof" (Pos_tree.prove t "key-00042");
  check "batch proof"
    (fst (Pos_tree.prove_batch t [ "key-00001"; "key-00200"; "absent" ]));
  check "range proof" (Pos_tree.prove_range t ~lo:"key-00100" ~hi:"key-00150")

(* A proof's chunks as they travel on the wire, and a proof forged from
   chunk strings through the public codec, as a malicious server would. *)
let strings_of_proof p =
  Codec.of_string
    (fun r -> Codec.read_list r Codec.read_string)
    (Codec.encode_to_string Pos_tree.proof_codec p)

let proof_of_strings l =
  Codec.decode_of_string Pos_tree.proof_codec
    (Codec.to_string (fun b -> Codec.write_list b Codec.write_string) l)

let test_proof_garbage_rejected () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 100) in
  let root = Pos_tree.root_hash t in
  Alcotest.(check bool) "garbage chunk" false
    (Pos_tree.verify ~root ~key:"key-00001" ~value:(Some "val-1")
       (proof_of_strings [ "not a chunk" ]));
  Alcotest.(check bool) "empty proof vs non-empty tree" false
    (Pos_tree.verify ~root ~key:"key-00001" ~value:(Some "val-1")
       (proof_of_strings []));
  (* A leaf chunk claiming 2^40 items but carrying one is rejected before
     any allocation sized by the claim. *)
  let inflated =
    Codec.to_string
      (fun b () ->
        Buffer.add_char b 'L';
        Codec.write_varint b (1 lsl 40);
        Codec.write_string b "key-00001";
        Codec.write_string b "val-1")
      ()
  in
  Alcotest.(check bool) "inflated item count" false
    (Pos_tree.verify ~root ~key:"key-00001" ~value:(Some "val-1")
       (proof_of_strings [ inflated ]))

(* A proof is exactly the chunks its walk enters, in walk order.  For a
   single key, a batch and a range alike, a valid chunk of the same tree
   appended, a chunk duplicated, the list reversed, or any chunk sent for
   an empty query must be rejected. *)
let test_proofs_canonical_form () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 800) in
  let root = Pos_tree.root_hash t in
  let foreign =
    List.nth (List.rev (strings_of_proof (Pos_tree.prove t "key-00799"))) 0
  in
  let rejected name accepts chunks =
    if accepts (proof_of_strings chunks) then Alcotest.failf "%s accepted" name
  in
  let canonical name accepts p =
    let chunks = strings_of_proof p in
    Alcotest.(check bool) (name ^ ": honest proof verifies") true (accepts p);
    Alcotest.(check bool) (name ^ ": several chunks, none foreign") true
      (List.length chunks > 1 && not (List.mem foreign chunks));
    rejected (name ^ " + foreign chunk") accepts (chunks @ [ foreign ]);
    rejected (name ^ " + duplicated root") accepts (List.hd chunks :: chunks);
    rejected (name ^ " + duplicated last chunk") accepts
      (chunks @ [ List.nth (List.rev chunks) 0 ]);
    rejected (name ^ " reversed") accepts (List.rev chunks)
  in
  canonical "single key"
    (Pos_tree.verify ~root ~key:"key-00007" ~value:(Some "val-7"))
    (Pos_tree.prove t "key-00007");
  let batch, items =
    Pos_tree.prove_batch t [ "key-00007"; "key-00400"; "key-00400~" ]
  in
  canonical "batch" (Pos_tree.verify_batch ~root ~items) batch;
  let lo = "key-00100" and hi = "key-00150" in
  canonical "range"
    (Pos_tree.verify_range ~root ~lo ~hi
       ~bindings:(Pos_tree.bindings_range t ~lo ~hi))
    (Pos_tree.prove_range t ~lo ~hi);
  let some = strings_of_proof (Pos_tree.prove t "key-00007") in
  rejected "chunks for no keys" (Pos_tree.verify_batch ~root ~items:[]) some;
  rejected "chunks for an empty range"
    (Pos_tree.verify_range ~root ~lo ~hi:lo ~bindings:[])
    some;
  rejected "chunks for an inverted range"
    (Pos_tree.verify_range ~root ~lo:hi ~hi:lo ~bindings:[])
    some;
  rejected "chunks for the empty tree"
    (Pos_tree.verify ~root:Hash.empty ~key:"key-00007" ~value:None)
    some;
  Alcotest.(check bool) "no chunks for an empty range" true
    (Pos_tree.verify_range ~root ~lo ~hi:lo ~bindings:[] (proof_of_strings []))

let test_proof_size_scales_logarithmically () =
  let _, cfg = mk ~pattern_bits:4 () in
  let small = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 100) in
  let _, cfg2 = mk ~pattern_bits:4 () in
  let large = Pos_tree.insert_batch (Pos_tree.empty cfg2) (kvs_of 10_000) in
  let size = Pos_tree.proof_codec.Codec.size_bytes in
  let ps = size (Pos_tree.prove small "key-00050") in
  let pl = size (Pos_tree.prove large "key-00050") in
  (* 100x more keys should cost far less than 100x proof bytes. *)
  Alcotest.(check bool) "sub-linear growth" true (pl < 20 * ps)

let prop_proofs_verify =
  QCheck.Test.make ~name:"proofs verify for random maps" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 80)
              (pair (string_of_size (Gen.int_range 1 8)) small_string))
    (fun kvs ->
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let root = Pos_tree.root_hash t in
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      M.for_all
        (fun k v -> Pos_tree.verify ~root ~key:k ~value:(Some v) (Pos_tree.prove t k))
        m)

(* --- batched multiproofs --- *)

let test_multiproof_roundtrip () =
  let _, cfg = mk () in
  let kvs = kvs_of 600 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  let keys =
    List.init 40 (fun i -> Printf.sprintf "key-%05d" (i * 13))
    @ [ "absent-key"; "zzz" ]
  in
  let mp, items = Pos_tree.prove_batch t keys in
  Alcotest.(check int) "one item per distinct key"
    (List.length (List.sort_uniq compare keys))
    (List.length items);
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) k (List.assoc_opt k kvs) v)
    items;
  Alcotest.(check bool) "verifies" true (Pos_tree.verify_batch ~root ~items mp);
  let mp' =
    Codec.decode_of_string Pos_tree.proof_codec
      (Codec.encode_to_string Pos_tree.proof_codec mp)
  in
  Alcotest.(check bool) "verifies after codec roundtrip" true
    (Pos_tree.verify_batch ~root ~items mp');
  Alcotest.(check bool) "size positive" true
    (Pos_tree.proof_codec.Codec.size_bytes mp > 0)

let test_multiproof_adversarial () =
  let _, cfg = mk () in
  let kvs = kvs_of 400 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  let keys = [ "key-00007"; "key-00123"; "key-00321"; "nope" ] in
  let mp, items = Pos_tree.prove_batch t keys in
  Alcotest.(check bool) "honest proof verifies" true
    (Pos_tree.verify_batch ~root ~items mp);
  (* Tampered value claim. *)
  let tamper k v' =
    List.map (fun (k', v) -> if k' = k then (k', v') else (k', v)) items
  in
  Alcotest.(check bool) "tampered value rejected" false
    (Pos_tree.verify_batch ~root ~items:(tamper "key-00123" (Some "evil")) mp);
  Alcotest.(check bool) "fake absence rejected" false
    (Pos_tree.verify_batch ~root ~items:(tamper "key-00007" None) mp);
  Alcotest.(check bool) "fake presence rejected" false
    (Pos_tree.verify_batch ~root ~items:(tamper "nope" (Some "ghost")) mp);
  (* Dropped chunk: removing any chunk breaks the hash chain for the keys
     routed through it. *)
  let chunks = strings_of_proof mp in
  let dropped_last =
    proof_of_strings (List.filteri (fun i _ -> i < List.length chunks - 1) chunks)
  in
  Alcotest.(check bool) "dropped chunk rejected" false
    (Pos_tree.verify_batch ~root ~items dropped_last);
  (* Tampered sibling: flip a byte inside one serialized chunk. *)
  let corrupt s =
    let b = Bytes.of_string s in
    Bytes.set b (Bytes.length b / 2)
      (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 1));
    Bytes.to_string b
  in
  let tampered_chunk =
    proof_of_strings
      (List.mapi (fun i s -> if i = List.length chunks - 1 then corrupt s else s) chunks)
  in
  Alcotest.(check bool) "tampered chunk rejected" false
    (Pos_tree.verify_batch ~root ~items tampered_chunk);
  (* Wrong root. *)
  Alcotest.(check bool) "wrong root rejected" false
    (Pos_tree.verify_batch ~root:(Hash.of_string "bogus") ~items mp);
  (* Empty-tree conventions. *)
  let t0 = Pos_tree.empty cfg in
  let mp0, items0 = Pos_tree.prove_batch t0 [ "a"; "b" ] in
  Alcotest.(check bool) "empty tree: absences verify" true
    (Pos_tree.verify_batch ~root:Hash.empty ~items:items0 mp0);
  Alcotest.(check bool) "empty proof vs non-empty tree rejected" false
    (Pos_tree.verify_batch ~root ~items (proof_of_strings []))

let test_multiproof_cheaper_than_independent () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 2000) in
  let root = Pos_tree.root_hash t in
  let keys = List.init 64 (fun i -> Printf.sprintf "key-%05d" (i * 31)) in
  (* Prove: one walk, each shared chunk charged once. *)
  let (mp, items), cb = Work.measure (fun () -> Pos_tree.prove_batch t keys) in
  let proofs, ci =
    Work.measure (fun () -> List.map (fun k -> Pos_tree.prove t k) keys)
  in
  Alcotest.(check bool) "batched walk reads fewer pages" true
    (cb.Work.page_reads < ci.Work.page_reads);
  (* Verify: each distinct chunk hashed once vs once per proof. *)
  let ok_b, vb =
    Work.measure (fun () -> Pos_tree.verify_batch ~root ~items mp)
  in
  let ok_i, vi =
    Work.measure (fun () ->
        List.for_all2
          (fun k p ->
            Pos_tree.verify ~root ~key:k ~value:(Pos_tree.get t k) p)
          keys proofs)
  in
  Alcotest.(check bool) "both verify" true (ok_b && ok_i);
  Alcotest.(check bool) "batched verify hashes less" true
    (vb.Work.hashes < vi.Work.hashes);
  (* Bytes: the deduplicated chunk set is strictly smaller on the wire. *)
  let independent_bytes =
    List.fold_left
      (fun a p -> a + Pos_tree.proof_codec.Codec.size_bytes p)
      0 proofs
  in
  Alcotest.(check bool) "batched proof strictly smaller" true
    (Pos_tree.proof_codec.Codec.size_bytes mp < independent_bytes)

let prop_multiproof_model =
  QCheck.Test.make ~name:"multiproofs verify for random maps and key sets"
    ~count:40
    QCheck.(pair
              (list_of_size (Gen.int_range 1 100)
                 (pair (string_of_size (Gen.int_range 1 6)) small_string))
              (list_of_size (Gen.int_range 1 20)
                 (string_of_size (Gen.int_range 1 6))))
    (fun (kvs, keys) ->
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let root = Pos_tree.root_hash t in
      let mp, items = Pos_tree.prove_batch t keys in
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      Pos_tree.verify_batch ~root ~items mp
      && List.for_all (fun (k, v) -> M.find_opt k m = v) items
      && List.length items = List.length (List.sort_uniq compare keys))

(* --- incremental update = fresh build, and write amplification --- *)

let prop_update_equals_fresh_build =
  QCheck.Test.make
    ~name:"incremental update root = fresh build on merged set" ~count:40
    QCheck.(pair
              (list (pair (string_of_size (Gen.int_range 1 5)) small_string))
              (list (pair (string_of_size (Gen.int_range 1 5)) small_string)))
    (fun (base, upd) ->
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) base in
      let t2 = Pos_tree.insert_batch t upd in
      let module M = Map.Make (String) in
      let m =
        List.fold_left (fun m (k, v) -> M.add k v m) M.empty (base @ upd)
      in
      let _, cfg2 = mk () in
      let fresh = Pos_tree.insert_batch (Pos_tree.empty cfg2) (M.bindings m) in
      Hash.equal (Pos_tree.root_hash t2) (Pos_tree.root_hash fresh)
      && Pos_tree.cardinal t2 = M.cardinal m)

let test_large_update_writes_only_changed_paths () =
  let _, cfg = mk ~pattern_bits:5 () in
  let base =
    List.init 100_000 (fun i -> (Printf.sprintf "key-%06d" i, Printf.sprintf "v%d" i))
  in
  let t, cbuild =
    Work.measure (fun () -> Pos_tree.insert_batch (Pos_tree.empty cfg) base)
  in
  let updates =
    List.init 100 (fun i -> (Printf.sprintf "key-%06d" (i * 997), "updated"))
  in
  let t2, cupd = Work.measure (fun () -> Pos_tree.insert_batch t updates) in
  (* 100 touched keys re-serialize only their leaf chunks plus ancestor
     paths — a tiny fraction of the ~3k-chunk tree the build wrote. *)
  Alcotest.(check bool) "update writes some nodes" true (cupd.Work.node_writes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "O(changed-path) writes: %d update vs %d build"
       cupd.Work.node_writes cbuild.Work.node_writes)
    true
    (cupd.Work.node_writes * 10 < cbuild.Work.node_writes);
  Alcotest.(check (option string)) "update applied" (Some "updated")
    (Pos_tree.get t2 "key-000000")

(* --- snapshot reload --- *)

let test_load_reconstructs_snapshot () =
  let store, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 800) in
  let root = Pos_tree.root_hash t in
  match Pos_tree.load cfg root with
  | None -> Alcotest.fail "load failed"
  | Some t' ->
    Alcotest.(check bool) "same root" true (Hash.equal root (Pos_tree.root_hash t'));
    Alcotest.(check int) "same cardinal" (Pos_tree.cardinal t) (Pos_tree.cardinal t');
    Alcotest.(check (option string)) "lookup works" (Some "val-123")
      (Pos_tree.get t' "key-00123");
    Alcotest.(check bool) "unknown root" true
      (Pos_tree.load cfg (Hash.of_string "nope") = None);
    ignore store

(* --- verifiable range queries --- *)

let test_range_queries () =
  let _, cfg = mk () in
  let kvs = kvs_of 500 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  let check lo hi =
    let bindings = Pos_tree.bindings_range t ~lo ~hi in
    let expected =
      List.filter (fun (k, _) -> lo <= k && k < hi) kvs
    in
    Alcotest.(check int)
      (Printf.sprintf "range [%s,%s) size" lo hi)
      (List.length expected) (List.length bindings);
    let proof = Pos_tree.prove_range t ~lo ~hi in
    if not (Pos_tree.verify_range ~root ~lo ~hi ~bindings proof) then
      Alcotest.failf "range proof failed for [%s,%s)" lo hi;
    (* Omitting an entry (incompleteness) must be rejected. *)
    (match bindings with
     | _ :: rest ->
       if Pos_tree.verify_range ~root ~lo ~hi ~bindings:rest proof then
         Alcotest.failf "omitted entry accepted for [%s,%s)" lo hi
     | [] -> ());
    (* Injecting an entry must be rejected. *)
    if
      Pos_tree.verify_range ~root ~lo ~hi
        ~bindings:(bindings @ [ (hi ^ "!", "fake") ])
        proof
    then Alcotest.failf "injected entry accepted for [%s,%s)" lo hi
  in
  check "key-00100" "key-00150";
  check "key-00000" "key-00001";
  check "a" "z";
  check "key-00490" "key-09999";
  check "a" "b" (* empty range below all keys *);
  check "z" "zz" (* empty range above all keys *)

let prop_range_model =
  QCheck.Test.make ~name:"range proofs match model on random maps" ~count:30
    QCheck.(triple
              (list_of_size (Gen.int_range 1 120)
                 (pair (string_of_size (Gen.int_range 1 4)) small_string))
              (string_of_size (Gen.int_range 0 4))
              (string_of_size (Gen.int_range 0 4)))
    (fun (kvs, a, b) ->
      let lo = min a b and hi = max a b in
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let root = Pos_tree.root_hash t in
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      let expected =
        M.bindings m |> List.filter (fun (k, _) -> lo <= k && k < hi)
      in
      let bindings = Pos_tree.bindings_range t ~lo ~hi in
      bindings = expected
      && Pos_tree.verify_range ~root ~lo ~hi ~bindings
           (Pos_tree.prove_range t ~lo ~hi))

(* --- the verified-chunk cache --- *)

let flip_middle s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* Every chunk-list tampering the cases above reject: padded, duplicated,
   reversed, truncated, emptied, garbage, and each chunk corrupted in turn. *)
let tamperings ~foreign chunks =
  let n = List.length chunks in
  [ chunks;
    chunks @ [ foreign ];
    (match chunks with c :: _ -> c :: chunks | [] -> [ foreign ]);
    chunks @ (match List.rev chunks with c :: _ -> [ c ] | [] -> []);
    List.rev chunks;
    List.filteri (fun i _ -> i < n - 1) chunks;
    [];
    [ "not a chunk" ] ]
  @ List.init n (fun i ->
        List.mapi (fun j s -> if Int.equal i j then flip_middle s else s) chunks)

(* One warm cache, shared by every check across two versions of a random
   tree, must never change a verdict: each check runs cold and warm. *)
let prop_cache_same_verdict =
  QCheck.Test.make ~name:"warm-cache verdict = cold verdict" ~count:30
    QCheck.(quad
              (list_of_size (Gen.int_range 1 150)
                 (pair (string_of_size (Gen.int_range 1 4)) small_string))
              (list_of_size (Gen.int_range 1 20)
                 (pair (string_of_size (Gen.int_range 1 4)) small_string))
              (list_of_size (Gen.int_range 0 8) (string_of_size (Gen.int_range 1 4)))
              (pair (string_of_size (Gen.int_range 0 4))
                 (string_of_size (Gen.int_range 0 4))))
    (fun (kvs, upd, keys, (a, b)) ->
      let lo = min a b and hi = max a b in
      let _, cfg = mk ~pattern_bits:2 () in
      let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let t2 = Pos_tree.insert_batch t1 upd in
      let cache = Pos_tree.Chunk_cache.create () in
      let foreign =
        List.hd (strings_of_proof (Pos_tree.prove t2 (fst (List.hd kvs))))
      in
      let agree check p =
        List.for_all
          (fun chunks ->
            let p = proof_of_strings chunks in
            check None p = check (Some cache) p)
          (tamperings ~foreign (strings_of_proof p))
      in
      let keys = keys @ List.map fst kvs |> List.filteri (fun i _ -> i < 12) in
      List.for_all
        (fun t ->
          let root = Pos_tree.root_hash t in
          let mp, items = Pos_tree.prove_batch t keys in
          let lied =
            List.map (fun (k, v) -> (k, if v = None then Some "x" else None)) items
          in
          let range = Pos_tree.prove_range t ~lo ~hi in
          let bindings = Pos_tree.bindings_range t ~lo ~hi in
          let k0 = List.hd keys in
          agree
            (fun cache p ->
              Pos_tree.verify ?cache ~root ~key:k0 ~value:(Pos_tree.get t k0) p)
            (Pos_tree.prove t k0)
          && agree (fun cache p -> Pos_tree.verify_batch ?cache ~root ~items p) mp
          && agree
               (fun cache p -> Pos_tree.verify_batch ?cache ~root ~items:lied p)
               mp
          && agree
               (fun cache p ->
                 Pos_tree.verify_batch ?cache ~root:(Hash.of_string "x") ~items p)
               mp
          && agree
               (fun cache p -> Pos_tree.extract_range ?cache ~root ~lo ~hi p)
               range
          && agree
               (fun cache p ->
                 Pos_tree.verify_range ?cache ~root ~lo ~hi ~bindings p)
               range)
        [ t1; t2; t1 ])

(* A chunk the cache holds for its pointer, sent with altered bytes, still
   gets the full check and fails it. *)
let test_cache_altered_bytes_rejected () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 800) in
  let root = Pos_tree.root_hash t in
  let hits = ref 0 in
  let cache =
    Pos_tree.Chunk_cache.create ~on_hit:(fun ~bytes:_ -> incr hits) ()
  in
  let verify p =
    Pos_tree.verify ~cache ~root ~key:"key-00123" ~value:(Some "val-123") p
  in
  let p = Pos_tree.prove t "key-00123" in
  let chunks = strings_of_proof p in
  Alcotest.(check bool) "cold" true (verify p);
  Alcotest.(check bool) "warm" true (verify p);
  Alcotest.(check int) "every chunk hit" (List.length chunks) !hits;
  List.iteri
    (fun i _ ->
      let altered =
        List.mapi (fun j s -> if Int.equal i j then flip_middle s else s) chunks
      in
      if verify (proof_of_strings altered) then
        Alcotest.failf "chunk %d altered under a cached hash accepted" i)
    chunks;
  Alcotest.(check bool) "honest proof still verifies" true (verify p)

let test_cache_second_check_hashes_less () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 2000) in
  let root = Pos_tree.root_hash t in
  let keys = [ "key-00007"; "key-01000"; "key-01999"; "absent" ] in
  let mp, items = Pos_tree.prove_batch t keys in
  let cache = Pos_tree.Chunk_cache.create () in
  let check () =
    Work.measure (fun () -> Pos_tree.verify_batch ~cache ~root ~items mp)
  in
  let ok1, first = check () in
  let ok2, second = check () in
  Alcotest.(check bool) "both verify" true (ok1 && ok2);
  Alcotest.(check bool) "first check hashes" true (first.Work.hashes > 0);
  Alcotest.(check bool) "second check hashes less" true
    (second.Work.hashes < first.Work.hashes)

let test_cache_bounded () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 5000) in
  let root = Pos_tree.root_hash t in
  let cache = Pos_tree.Chunk_cache.create () in
  for i = 0 to 499 do
    let k = Printf.sprintf "key-%05d" (i * 10) in
    if not (Pos_tree.verify ~cache ~root ~key:k ~value:(Pos_tree.get t k)
              (Pos_tree.prove t k))
    then Alcotest.failf "%s" k;
    if Pos_tree.Chunk_cache.length cache > Pos_tree.Chunk_cache.capacity then
      Alcotest.failf "%d entries after %d proofs"
        (Pos_tree.Chunk_cache.length cache) (i + 1)
  done;
  Alcotest.(check int) "full after more distinct chunks than it holds"
    Pos_tree.Chunk_cache.capacity (Pos_tree.Chunk_cache.length cache)

(* --- golden digests ---

   Ten seeded random workloads — build, update and batch proving — each
   fingerprinted as the roots, the encoded multiproof bytes and the node
   store's counters.  The expected SHA-256 of every fingerprint was
   recorded from the earlier multi-domain implementation (where sizes
   1/2/4/8 agreed), so this pins the serial rewrite to byte-identical
   output. *)

let golden_fingerprints =
  [| "3890f2d3aadaf9bd69e34e41826a1961519d9537cb2fd290c03ee26ae5a49f38";
     "b38ec3bef8dc97d77ff9a4e99fbe3c1e8119c9a0acea82d6f971534a9c7bdbc6";
     "bd8bb6366867846999585d92dc1916592f6017804633b7c3b4603bf199aadbc2";
     "9037027671f25282d46c9bf8c7362ce7632f2aeb615d0deb6187e3470d14118e";
     "58975dadbf82b7ff27e73dd678570b24dd773fd693ce8c25e96a6f59f30300c3";
     "bf0f56b24ab8501c46050a371ef6e471a0c18c307d346ed8b568dbfddcd4bad2";
     "5f693e4ffbaa012fabeed8defdb27e702fe8294e288e1514db5058a44f17419b";
     "1b36ef28547095badda8a2bbc5e0ce3e4111c4d414b8df9424cd5810f0dcb582";
     "a4d5fa7bd496c2b8ae07eb5043a225e85a39a5c57a0ad845b2bc0b465ee17e71";
     "53292cd97193582eaeff554b1259e24a90f83943482ecdc584b86f54f20c8b06" |]

let fingerprint ~seed =
  let rng = Rng.create seed in
  let random_kvs n =
    List.init n (fun _ ->
        (Rng.alphanum rng (1 + Rng.int_below rng 8), Rng.alphanum rng 6))
  in
  let base = random_kvs (200 + Rng.int_below rng 600) in
  let upd = random_kvs (50 + Rng.int_below rng 200) in
  let keys =
    List.init (1 + Rng.int_below rng 30) (fun _ ->
        Rng.alphanum rng (1 + Rng.int_below rng 8))
  in
  let store, cfg = mk () in
  let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg) base in
  let t2 = Pos_tree.insert_batch t1 upd in
  let mp, items = Pos_tree.prove_batch t2 keys in
  let buf = Buffer.create 4096 in
  Pos_tree.proof_codec.Codec.encode buf mp;
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf (Option.value ~default:"<absent>" v))
    items;
  Printf.sprintf "%s|%s|%s|%d|%d|%d|%d"
    (Hex.encode (Pos_tree.root_hash t1))
    (Hex.encode (Pos_tree.root_hash t2))
    (Hex.encode (Buffer.contents buf))
    (Storage.Node_store.node_count store)
    (Storage.Node_store.total_bytes store)
    (Storage.Node_store.cache_hits store)
    (Storage.Node_store.cache_misses store)

let test_golden_digests () =
  Array.iteri
    (fun i want ->
      let seed = i + 1 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d fingerprint" seed)
        want
        (Hex.encode (Sha256.digest_string (fingerprint ~seed))))
    golden_fingerprints

(* Range and single-key proof bytes for ten seeded trees, with the work of
   proving and verifying each.  The ranges cover an interior span, an edge
   span holding only the last key, a span below every key, and two empty
   ranges (lo = hi and lo > hi); the keys are a present and an absent
   one.  Recorded before the provers and verifiers became one walk. *)
let golden_walk_fingerprints =
  [| "c1d006f5c43a37db6791ba8474ed459f985147ef2490d554c91224b696221150";
     "24b3d3b952c27d4668c9c8a4d13b0cfbe2dfc67bb0a100027ff1a86fc2b684c7";
     "775233be065620d48177c0b586a7858ec97efe042e5f0c5c5d4659691a8f0bcb";
     "61d6ed758ec71aadc294b844ed18025a24c6ffd6afb3437de5534f76ead13b8d";
     "f5c341ca920eb8d5c2529416ab942007d9906c5c20a58a19df4e8be96426e382";
     "8e39813775518f1d971a8967176ddac49420686612f197c927c2f68477b5303c";
     "67c69096e72672223730d4215aacc5a688a3b7d0c294f6a87bec3bce9a31e396";
     "467d5c5a264bb56dd564f799624cae81239006e1103661b051c118143edd20de";
     "8c48d10626e16956a928a25446e7f093169c08a560529be4bc5c342d538f736a";
     "20ed8f021352eef39683998365cc9047a853f7760a8d52394ba9942e88b2ac64" |]

let walk_fingerprint ~seed =
  let rng = Rng.create (1000 + seed) in
  let kvs =
    List.init (100 + Rng.int_below rng 700) (fun _ ->
        (Rng.alphanum rng (1 + Rng.int_below rng 8), Rng.alphanum rng 6))
  in
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  let keys = Array.of_list (List.map fst (Pos_tree.bindings t)) in
  let n = Array.length keys in
  let a = keys.(Rng.int_below rng (n / 2)) in
  let b = keys.((n / 2) + Rng.int_below rng (n / 2)) in
  let last = keys.(n - 1) in
  let work (c : Work.counters) =
    Printf.sprintf "%d/%d/%d" c.Work.hashes c.Work.page_reads c.Work.cache_hits
  in
  let range (lo, hi) =
    let p, pw = Work.measure (fun () -> Pos_tree.prove_range t ~lo ~hi) in
    let bindings = Pos_tree.bindings_range t ~lo ~hi in
    let ok, vw =
      Work.measure (fun () -> Pos_tree.verify_range ~root ~lo ~hi ~bindings p)
    in
    Printf.sprintf "range %S %S %d %s %s %b %s" lo hi (List.length bindings)
      (Hex.encode (Codec.encode_to_string Pos_tree.proof_codec p))
      (work pw) ok (work vw)
  in
  let single (k, v) =
    let p, pw = Work.measure (fun () -> Pos_tree.prove t k) in
    let ok, vw = Work.measure (fun () -> Pos_tree.verify ~root ~key:k ~value:v p) in
    Printf.sprintf "key %S %s %s %b %s" k
      (Hex.encode (Codec.encode_to_string Pos_tree.proof_codec p))
      (work pw) ok (work vw)
  in
  String.concat "\n"
    (List.map range
       [ (a, b); (last, last ^ "\x00"); ("", keys.(0)); (a, a); (b, a) ]
     @ List.map single [ (a, Pos_tree.get t a); (a ^ "!", None) ])

let test_golden_walks () =
  Array.iteri
    (fun i want ->
      let seed = i + 1 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d walk fingerprint" seed)
        want
        (Hex.encode (Sha256.digest_string (walk_fingerprint ~seed))))
    golden_walk_fingerprints

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "postree"
    [ ("chunker",
       [ Alcotest.test_case "deterministic" `Quick test_chunker_deterministic;
         Alcotest.test_case "content-defined" `Quick test_chunker_boundary_depends_on_content ]);
      ("map",
       [ Alcotest.test_case "empty" `Quick test_empty_tree;
         Alcotest.test_case "1000 inserts" `Quick test_get_after_inserts;
         Alcotest.test_case "overwrite + snapshots" `Quick test_overwrite;
         Alcotest.test_case "batch last-write-wins" `Quick test_batch_last_write_wins ]
       @ qsuite [ prop_model ]);
      ("invariance",
       [ Alcotest.test_case "incremental = from-scratch" `Quick
           test_structural_invariance_incremental_vs_scratch ]
       @ qsuite [ prop_invariance ]);
      ("sharing",
       [ Alcotest.test_case "single update writes a path" `Quick test_snapshots_share_nodes;
         Alcotest.test_case "identical content dedups" `Quick test_identical_content_dedups_fully ]);
      ("multiproof",
       [ Alcotest.test_case "roundtrip" `Quick test_multiproof_roundtrip;
         Alcotest.test_case "adversarial" `Quick test_multiproof_adversarial;
         Alcotest.test_case "cheaper than independent proofs" `Quick
           test_multiproof_cheaper_than_independent ]
       @ qsuite [ prop_multiproof_model ]);
      ("updates",
       [ Alcotest.test_case "100k-key tree, 100 updates, O(changed-path) writes"
           `Quick test_large_update_writes_only_changed_paths ]
       @ qsuite [ prop_update_equals_fresh_build ]);
      ("load",
       [ Alcotest.test_case "reload snapshot from store" `Quick
           test_load_reconstructs_snapshot ]);
      ("range",
       [ Alcotest.test_case "range queries + proofs" `Quick test_range_queries ]
       @ qsuite [ prop_range_model ]);
      ("cache",
       [ Alcotest.test_case "altered bytes under a cached hash rejected" `Quick
           test_cache_altered_bytes_rejected;
         Alcotest.test_case "second check hashes less" `Quick
           test_cache_second_check_hashes_less;
         Alcotest.test_case "never above capacity" `Quick test_cache_bounded ]
       @ qsuite [ prop_cache_same_verdict ]);
      ("golden",
       [ Alcotest.test_case "10-seed build/update/proof digests" `Quick
           test_golden_digests;
         Alcotest.test_case "10-seed range and single-key proofs" `Quick
           test_golden_walks ]);
      ("proofs",
       [ Alcotest.test_case "presence and absence" `Quick test_proofs_presence_absence;
         Alcotest.test_case "stale snapshot rejected" `Quick test_proof_stale_snapshot_rejected_on_new_root;
         Alcotest.test_case "codec roundtrip" `Quick test_proof_codec_roundtrip;
         Alcotest.test_case "codecs pin the wire format" `Quick
           test_proof_codecs_wire_format;
         Alcotest.test_case "garbage rejected" `Quick test_proof_garbage_rejected;
         Alcotest.test_case "only the canonical walk is accepted" `Quick
           test_proofs_canonical_form;
         Alcotest.test_case "size logarithmic" `Quick test_proof_size_scales_logarithmically ]
       @ qsuite [ prop_proofs_verify ]) ]
