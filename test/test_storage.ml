(* Tests for the storage substrates: node store, WAL, B+-tree, skip list. *)

open Glassdb_util
open Storage

(* --- Node store --- *)

let test_node_store_dedup () =
  let s = Node_store.create () in
  let h = Hash.of_string "node" in
  Node_store.put s h "payload";
  Alcotest.(check int) "no duplicates yet" 0 (Node_store.duplicate_puts s);
  let bytes1 = Node_store.total_bytes s in
  let (), c = Work.measure (fun () -> Node_store.put s h "payload") in
  Alcotest.(check int) "dedup: second put free" bytes1 (Node_store.total_bytes s);
  Alcotest.(check int) "dedup: second put not charged" 0
    (c.Work.node_writes + c.Work.bytes_written);
  Alcotest.(check int) "duplicate counted" 1 (Node_store.duplicate_puts s);
  Node_store.put s h "payload";
  Alcotest.(check int) "duplicates accumulate" 2 (Node_store.duplicate_puts s);
  Alcotest.(check int) "one node" 1 (Node_store.node_count s);
  Alcotest.(check (option string)) "get" (Some "payload") (Node_store.get s h);
  Alcotest.(check (option string)) "miss" None
    (Node_store.get s (Hash.of_string "other"))

let test_node_store_work_accounting () =
  let s = Node_store.create () in
  let (), c =
    Work.measure (fun () -> Node_store.put s (Hash.of_string "k") "0123456789")
  in
  Alcotest.(check int) "one node write" 1 c.Work.node_writes;
  Alcotest.(check int) "bytes = payload + hash" (10 + Hash.size) c.Work.bytes_written;
  (* An absent key never touches a page. *)
  let (), c2 = Work.measure (fun () -> ignore (Node_store.get s Hash.empty)) in
  Alcotest.(check int) "miss: no page read" 0 c2.Work.page_reads;
  Alcotest.(check int) "miss: no cache hit" 0 c2.Work.cache_hits

let test_node_store_cache_accounting () =
  (* Capacity-2 LRU: hits are charged as cache hits, evicted nodes cost a
     page read again, absent keys are never charged. *)
  let s = Node_store.create ~cache_capacity:2 () in
  let h1 = Hash.of_string "n1" and h2 = Hash.of_string "n2" in
  let h3 = Hash.of_string "n3" in
  Node_store.put s h1 "a";
  Node_store.put s h2 "b";
  (* Both fresh nodes are cached by put. *)
  let (), c = Work.measure (fun () -> ignore (Node_store.get s h1)) in
  Alcotest.(check int) "hot node: cache hit" 1 c.Work.cache_hits;
  Alcotest.(check int) "hot node: no page read" 0 c.Work.page_reads;
  (* h3 evicts the LRU entry (h2, since h1 was just touched). *)
  Node_store.put s h3 "c";
  let (), c2 = Work.measure (fun () -> ignore (Node_store.get s h2)) in
  Alcotest.(check int) "evicted node: page read" 1 c2.Work.page_reads;
  Alcotest.(check int) "evicted node: no cache hit" 0 c2.Work.cache_hits;
  Alcotest.(check bool) "hit counter grew" true (Node_store.cache_hits s >= 1);
  Alcotest.(check bool) "miss counter grew" true (Node_store.cache_misses s >= 1);
  Alcotest.(check int) "LRU bounded" 2 (Node_store.cached_nodes s);
  (* An absent key counts as a miss but costs nothing. *)
  let misses = Node_store.cache_misses s in
  let (), c3 =
    Work.measure (fun () -> ignore (Node_store.get s (Hash.of_string "zz")))
  in
  Alcotest.(check int) "absent: no charge" 0
    (c3.Work.page_reads + c3.Work.cache_hits);
  Alcotest.(check int) "absent: miss counted" (misses + 1)
    (Node_store.cache_misses s)

(* Distinct hashes whose first byte is even: with a 64-slot cache they all
   land in shard 0 of two. *)
let even_hashes n =
  let rec go i acc k =
    if k = 0 then List.rev acc
    else
      let h = Hash.of_string (Printf.sprintf "node-%d" i) in
      if Char.code h.[0] mod 2 = 0 then go (i + 1) (h :: acc) (k - 1)
      else go (i + 1) acc k
  in
  go 0 [] n

let test_node_store_per_shard_eviction () =
  (* 64 slots split into two 32-slot shards by first hash byte: the 33rd
     node of one shard evicts that shard's oldest entry although half the
     cache is empty.  This partition is part of the cost model. *)
  let s = Node_store.create ~cache_capacity:64 () in
  let hs = even_hashes 33 in
  List.iter (fun h -> Node_store.put s h "x") hs;
  Alcotest.(check int) "one shard full" 32 (Node_store.cached_nodes s);
  let (), c = Work.measure (fun () -> ignore (Node_store.get s (List.hd hs))) in
  Alcotest.(check int) "oldest evicted: page read" 1 c.Work.page_reads;
  let (), c =
    Work.measure (fun () -> ignore (Node_store.get s (List.nth hs 32)))
  in
  Alcotest.(check int) "newest resident: cache hit" 1 c.Work.cache_hits

let test_node_store_small_cache_single_lru () =
  (* Below 64 slots the cache is one shard, i.e. exact global LRU: 63
     same-parity nodes all stay resident. *)
  let s = Node_store.create ~cache_capacity:63 () in
  let hs = even_hashes 63 in
  List.iter (fun h -> Node_store.put s h "x") hs;
  Alcotest.(check int) "all resident" 63 (Node_store.cached_nodes s);
  let (), c =
    Work.measure (fun () -> List.iter (fun h -> ignore (Node_store.get s h)) hs)
  in
  Alcotest.(check int) "every fetch a hit" 63 c.Work.cache_hits;
  Alcotest.(check int) "no page reads" 0 c.Work.page_reads

(* --- WAL --- *)

let test_wal_append_and_replay () =
  let w = Wal.create () in
  Alcotest.(check int) "empty last_seq" (-1) (Wal.last_seq w);
  let s0 = Wal.append w ~kind:"prepare" ~payload:"t1" in
  let s1 = Wal.append w ~kind:"commit" ~payload:"t1" in
  Alcotest.(check (list int)) "seqs" [ 0; 1 ] [ s0; s1 ];
  let tail = Wal.records_from w 1 in
  Alcotest.(check int) "tail length" 1 (List.length tail);
  Alcotest.(check string) "tail kind" "commit" (List.hd tail).Wal.kind;
  Wal.truncate_before w 1;
  Alcotest.(check int) "after truncate" 1 (List.length (Wal.records_from w 0));
  Alcotest.(check int) "seq continues" 2 (Wal.append w ~kind:"commit" ~payload:"t2")

let test_wal_truncate_after () =
  let w = Wal.create () in
  for i = 0 to 4 do
    ignore (Wal.append w ~kind:"commit" ~payload:(Printf.sprintf "t%d" i))
  done;
  Wal.truncate_after w 2;
  Alcotest.(check int) "prefix survives" 3 (List.length (Wal.records_from w 0));
  Alcotest.(check int) "last_seq rewound" 2 (Wal.last_seq w);
  (* The sequence counter rewinds with the tail: new appends reuse it. *)
  Alcotest.(check int) "seq continues from cut" 3
    (Wal.append w ~kind:"commit" ~payload:"t-new");
  Wal.truncate_after w (-1);
  Alcotest.(check int) "cut to empty" 0 (List.length (Wal.records_from w 0));
  Alcotest.(check int) "empty last_seq" (-1) (Wal.last_seq w)

let test_wal_tear_last () =
  let w = Wal.create () in
  ignore (Wal.append w ~kind:"commit" ~payload:"first");
  ignore (Wal.append w ~kind:"commit" ~payload:"abcdef");
  let before = Wal.size_bytes w in
  Wal.tear_last w ~drop_bytes:3;
  Alcotest.(check int) "record survives torn" 2
    (List.length (Wal.records_from w 0));
  let last = List.nth (Wal.records_from w 0) 1 in
  Alcotest.(check string) "payload cut short" "abc" last.Wal.payload;
  Alcotest.(check bool) "accounted bytes shrink" true (Wal.size_bytes w < before);
  (* Tearing off at least the whole payload drops the record entirely. *)
  Wal.tear_last w ~drop_bytes:64;
  Alcotest.(check int) "fully torn record gone" 1
    (List.length (Wal.records_from w 0));
  Alcotest.(check string) "prefix intact" "first"
    (List.hd (Wal.records_from w 0)).Wal.payload

(* --- B+-tree --- *)

let test_bptree_basic () =
  let t = Bptree.create ~order:4 () in
  List.iter (fun i -> Bptree.insert t (Printf.sprintf "%03d" i) i) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (option int)) "find 005" (Some 5) (Bptree.find t "005");
  Alcotest.(check (option int)) "miss" None (Bptree.find t "004");
  Bptree.insert t "005" 50;
  Alcotest.(check (option int)) "overwrite" (Some 50) (Bptree.find t "005");
  Alcotest.(check int) "cardinal" 5 (Bptree.cardinal t)

let test_bptree_many_and_sorted () =
  let t = Bptree.create ~order:8 () in
  let n = 5000 in
  let rng = Rng.create 77 in
  let keys = Array.init n (fun i -> Printf.sprintf "key-%05d" i) in
  Rng.shuffle rng keys;
  Array.iter (fun k -> Bptree.insert t k k) keys;
  Alcotest.(check int) "cardinal" n (Bptree.cardinal t);
  let l = Bptree.to_list t in
  Alcotest.(check int) "to_list length" n (List.length l);
  let sorted = List.sort compare (Array.to_list keys) in
  Alcotest.(check bool) "sorted order" true
    (List.map fst l = sorted);
  Alcotest.(check bool) "height grows" true (Bptree.height t > 1);
  (* Every key findable after heavy splitting. *)
  Array.iter
    (fun k ->
      if Bptree.find t k <> Some k then Alcotest.failf "lost key %s" k)
    keys

let test_bptree_range () =
  let t = Bptree.create ~order:4 () in
  for i = 0 to 99 do
    Bptree.insert t (Printf.sprintf "%03d" i) i
  done;
  let r = Bptree.range t ~lo:"010" ~hi:"015" in
  Alcotest.(check (list int)) "range values" [ 10; 11; 12; 13; 14 ]
    (List.map snd r)

let prop_bptree_model =
  QCheck.Test.make ~name:"bptree agrees with map model" ~count:100
    QCheck.(list (pair (string_of_size (Gen.int_range 1 6)) small_int))
    (fun kvs ->
      let t = Bptree.create ~order:4 () in
      List.iter (fun (k, v) -> Bptree.insert t k v) kvs;
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      M.for_all (fun k v -> Bptree.find t k = Some v) m
      && Bptree.cardinal t = M.cardinal m
      && Bptree.to_list t = M.bindings m)

(* --- Skip list --- *)

let test_skiplist_append_find () =
  let s = Skiplist.create () in
  Alcotest.(check (option (pair int string))) "empty last" None (Skiplist.last s);
  List.iter (fun i -> Skiplist.append s ~seq:i (Printf.sprintf "v%d" i)) [ 1; 3; 7; 10 ];
  Alcotest.(check (option (pair int string))) "last" (Some (10, "v10")) (Skiplist.last s);
  Alcotest.(check (option string)) "find exact" (Some "v3") (Skiplist.find s 3);
  Alcotest.(check (option string)) "find missing" None (Skiplist.find s 4);
  Alcotest.(check (option (pair int string))) "at_or_before 6" (Some (3, "v3"))
    (Skiplist.find_at_or_before s 6);
  Alcotest.(check (option (pair int string))) "at_or_before 0" None
    (Skiplist.find_at_or_before s 0);
  Alcotest.(check int) "length" 4 (Skiplist.length s)

let test_skiplist_ordering_enforced () =
  let s = Skiplist.create () in
  Skiplist.append s ~seq:5 "a";
  Alcotest.check_raises "non-increasing rejected"
    (Invalid_argument "Skiplist.append: non-increasing seq") (fun () ->
      Skiplist.append s ~seq:5 "b")

let test_skiplist_last_n () =
  let s = Skiplist.create () in
  for i = 1 to 20 do
    Skiplist.append s ~seq:i (string_of_int i)
  done;
  Alcotest.(check (list (pair int string))) "last 3"
    [ (20, "20"); (19, "19"); (18, "18") ]
    (Skiplist.last_n s 3);
  Alcotest.(check int) "last_n capped" 20 (List.length (Skiplist.last_n s 100))

let prop_skiplist_model =
  QCheck.Test.make ~name:"skiplist agrees with sorted-assoc model" ~count:100
    QCheck.(list small_nat)
    (fun seqs ->
      let seqs = List.sort_uniq compare (List.map (fun x -> x + 1) seqs) in
      let s = Skiplist.create () in
      List.iter (fun i -> Skiplist.append s ~seq:i (string_of_int i)) seqs;
      Skiplist.to_list s = List.map (fun i -> (i, string_of_int i)) seqs
      && List.for_all (fun i -> Skiplist.find s i = Some (string_of_int i)) seqs)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "storage"
    [ ("node_store",
       [ Alcotest.test_case "dedup" `Quick test_node_store_dedup;
         Alcotest.test_case "work accounting" `Quick test_node_store_work_accounting;
         Alcotest.test_case "cache accounting" `Quick test_node_store_cache_accounting;
         Alcotest.test_case "eviction is per shard" `Quick
           test_node_store_per_shard_eviction;
         Alcotest.test_case "small cache is one LRU" `Quick
           test_node_store_small_cache_single_lru ]);
      ("wal",
       [ Alcotest.test_case "append and replay" `Quick test_wal_append_and_replay;
         Alcotest.test_case "truncate_after" `Quick test_wal_truncate_after;
         Alcotest.test_case "tear_last" `Quick test_wal_tear_last ]);
      ("bptree",
       [ Alcotest.test_case "basic" `Quick test_bptree_basic;
         Alcotest.test_case "5k keys, splits, sorted" `Quick test_bptree_many_and_sorted;
         Alcotest.test_case "range" `Quick test_bptree_range ]
       @ qsuite [ prop_bptree_model ]);
      ("skiplist",
       [ Alcotest.test_case "append/find" `Quick test_skiplist_append_find;
         Alcotest.test_case "ordering enforced" `Quick test_skiplist_ordering_enforced;
         Alcotest.test_case "last_n" `Quick test_skiplist_last_n ]
       @ qsuite [ prop_skiplist_model ]) ]
