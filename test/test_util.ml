open Glassdb_util

let check_hex msg expected raw = Alcotest.(check string) msg expected (Hex.encode raw)

(* --- SHA-256 --- *)

let test_sha_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_string (String.make 1_000_000 'a'))

let test_sha_padding_boundaries () =
  (* Lengths around the 55/56/64-byte padding edges must match the one-shot
     reference; compare against incremental feeding in odd chunk sizes. *)
  List.iter
    (fun n ->
      let s = String.init n (fun i -> Char.chr (i land 0xff)) in
      let t = Sha256.init () in
      let rec feed pos chunk =
        if pos < n then begin
          let len = min chunk (n - pos) in
          Sha256.feed_bytes t ~off:pos ~len (Bytes.of_string s);
          feed (pos + len) (chunk + 3)
        end
      in
      feed 0 1;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Hex.encode (Sha256.digest_string s))
        (Hex.encode (Sha256.finalize t)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 127; 128; 129; 1000 ]

let test_hmac_vectors () =
  (* RFC 4231 test cases 1 and 2. *)
  check_hex "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.hmac ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?")

let prop_incremental_matches_oneshot =
  QCheck.Test.make ~name:"sha256 incremental = one-shot" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      let t = Sha256.init () in
      Sha256.feed_string t a;
      Sha256.feed_string t b;
      String.equal (Sha256.finalize t) (Sha256.digest_string (a ^ b)))

let stale_ctx =
  Invalid_argument "Sha256: context already finalized (reset before reuse)"

let test_sha_reset_reuse () =
  (* One context through many digests: every reset must behave exactly
     like a fresh init, including messages spanning >1 block and the
     empty message. *)
  let t = Sha256.init () in
  List.iter
    (fun s ->
      Sha256.reset t;
      Sha256.feed_string t s;
      Alcotest.(check string)
        (Printf.sprintf "reused ctx, len %d" (String.length s))
        (Hex.encode (Sha256.digest_string s))
        (Hex.encode (Sha256.finalize t)))
    [ "abc"; ""; String.make 200 'x'; "abc";
      String.init 1000 (fun i -> Char.chr (i land 0xff)) ]

let test_sha_use_after_finalize () =
  (* The single-use footgun: feeding or re-finalizing a finalized context
     must raise instead of silently producing a digest of stale state. *)
  let t = Sha256.init () in
  Sha256.feed_string t "abc";
  ignore (Sha256.finalize t);
  Alcotest.check_raises "feed after finalize" stale_ctx (fun () ->
      Sha256.feed_string t "x");
  Alcotest.check_raises "double finalize" stale_ctx (fun () ->
      ignore (Sha256.finalize t));
  (* reset clears the poisoned state *)
  Sha256.reset t;
  Sha256.feed_string t "abc";
  Alcotest.(check string) "reset clears the guard"
    (Hex.encode (Sha256.digest_string "abc"))
    (Hex.encode (Sha256.finalize t))

let test_sha_digest_into () =
  let t = Sha256.init () in
  Sha256.feed_string t "abc";
  let buf = Bytes.make 40 '\xff' in
  Sha256.digest_into t buf 5;
  Alcotest.(check string) "digest written at offset"
    (Hex.encode (Sha256.digest_string "abc"))
    (Hex.encode (Bytes.sub_string buf 5 32));
  Alcotest.(check string) "bytes before the offset untouched"
    (String.make 5 '\xff') (Bytes.sub_string buf 0 5);
  Alcotest.(check string) "bytes after the digest untouched"
    (String.make 3 '\xff') (Bytes.sub_string buf 37 3);
  let bounds = Invalid_argument "Sha256.digest_into" in
  let fresh () =
    let t = Sha256.init () in
    Sha256.feed_string t "abc";
    t
  in
  Alcotest.check_raises "negative offset" bounds (fun () ->
      Sha256.digest_into (fresh ()) (Bytes.create 32) (-1));
  Alcotest.check_raises "overflowing offset" bounds (fun () ->
      Sha256.digest_into (fresh ()) (Bytes.create 32) 1)

(* --- Hex --- *)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      String.equal (Hex.decode (Hex.encode s)) s)

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Hex.decode: non-hex character") (fun () ->
      ignore (Hex.decode "zz"))

(* --- Hash --- *)

let test_hash_domain_separation () =
  let data = "same bytes" in
  let all =
    [ Hash.of_string data; Hash.leaf data; Hash.kv data "";
      Hash.combine [ data ] ]
  in
  let distinct = List.sort_uniq String.compare all in
  Alcotest.(check int) "all four tags give distinct digests" 4
    (List.length distinct)

let test_hash_kv_unambiguous () =
  (* ("ab","c") must differ from ("a","bc"): the length prefix matters. *)
  Alcotest.(check bool) "kv not concat-ambiguous" false
    (Hash.equal (Hash.kv "ab" "c") (Hash.kv "a" "bc"))

let test_hash_combine_feed () =
  let frags = [ "alpha"; ""; "beta"; String.make 100 'z' ] in
  Alcotest.(check string) "combine_feed = combine"
    (Hex.encode (Hash.combine frags))
    (Hex.encode (Hash.combine_feed (fun push -> List.iter push frags)));
  (* Feeders may call the primitive ops mid-stream (the memoized item-hash
     pattern): primitives and aggregates use separate scratch contexts. *)
  Alcotest.(check string) "primitive calls inside a feeder are safe"
    (Hex.encode (Hash.combine [ Hash.leaf "a"; Hash.kv "k" "v" ]))
    (Hex.encode
       (Hash.combine_feed (fun push ->
            push (Hash.leaf "a");
            push (Hash.kv "k" "v"))))

(* [Work.hashes] counts digests: one per primitive or combine call,
   whatever the input length. *)
let test_hash_counts_digests () =
  let hashes f = (snd (Work.measure f)).Work.hashes in
  Alcotest.(check int) "10 KiB of_string" 1
    (hashes (fun () -> ignore (Hash.of_string (String.make 10_240 'x'))));
  Alcotest.(check int) "leaf" 1 (hashes (fun () -> ignore (Hash.leaf "a")));
  Alcotest.(check int) "kv" 1 (hashes (fun () -> ignore (Hash.kv "k" "v")));
  Alcotest.(check int) "interior" 1
    (hashes (fun () -> ignore (Hash.interior Hash.empty Hash.empty)));
  Alcotest.(check int) "combine of 50 digests" 1
    (hashes (fun () -> ignore (Hash.combine (List.init 50 (fun _ -> Hash.empty)))));
  Alcotest.(check int) "combine_feed of 50 fragments" 1
    (hashes (fun () ->
         ignore (Hash.combine_feed (fun push -> for _ = 1 to 50 do push "m" done))))

exception Feeder_failed

(* The module-level contexts are reset on entry, so a feeder that raises
   half-way leaves no state behind for the next digest. *)
let test_hash_feeder_exception () =
  let raises f =
    match f () with
    | exception Feeder_failed -> ()
    | _ -> Alcotest.fail "feeder exception swallowed"
  in
  raises (fun () ->
      Hash.combine_feed (fun push ->
          push "partial";
          raise Feeder_failed));
  Alcotest.(check string) "combine_feed after a failed feed"
    (Hex.encode (Sha256.digest_string "\x02ab"))
    (Hex.encode (Hash.combine_feed (fun push -> push "a"; push "b")));
  raises (fun () ->
      Hash.combine_feed (fun _ ->
          ignore (Hash.leaf "inner");
          raise Feeder_failed));
  Alcotest.(check string) "primitive after a failed feed"
    (Hex.encode (Sha256.digest_string "\x00z"))
    (Hex.encode (Hash.leaf "z"))

(* A chunk hash is one combine_feed whose feeder memoizes each item's
   hash through the primitive ops mid-stream; back-to-back chunks must each
   equal the combine of their precomputed item hashes. *)
let test_hash_combine_feed_primitives () =
  let chunks = [| [ ("a", "1"); ("b", "2") ]; [ ("c", "3") ]; [] |] in
  Alcotest.(check (array string)) "primitive calls inside chunk feeders"
    (Array.map
       (fun items ->
         Hex.encode
           (Hash.combine
              (List.concat_map (fun (k, v) -> [ Hash.leaf k; Hash.kv k v ]) items)))
       chunks)
    (Array.map
       (fun items ->
         Hex.encode
           (Hash.combine_feed (fun push ->
                List.iter
                  (fun (k, v) ->
                    push (Hash.leaf k);
                    push (Hash.kv k v))
                  items)))
       chunks)

(* --- Codec --- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(map abs int)
    (fun n ->
      let s = Codec.to_string Codec.write_varint n in
      Codec.of_string Codec.read_varint s = n)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:200 QCheck.string (fun s ->
      Codec.of_string Codec.read_string (Codec.to_string Codec.write_string s)
      = s)

let prop_list_roundtrip =
  QCheck.Test.make ~name:"list roundtrip" ~count:200
    QCheck.(list small_string)
    (fun l ->
      let enc b = Codec.write_list b Codec.write_string in
      let dec r = Codec.read_list r Codec.read_string in
      Codec.of_string dec (Codec.to_string enc l) = l)

let test_codec_malformed () =
  let truncated () = ignore (Codec.of_string Codec.read_string "\x05ab") in
  (match truncated () with
   | exception Codec.Malformed _ -> ()
   | () -> Alcotest.fail "expected Malformed on truncated string");
  match Codec.of_string Codec.read_varint "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff" with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed on oversized varint"

let test_codec_trailing () =
  match Codec.of_string Codec.read_bool "\x01\x00" with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed on trailing bytes"

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  Alcotest.(check bool) "split differs from parent" false
    (Int64.equal (Rng.int64 a) (Rng.int64 c))

let prop_int_below_in_range =
  QCheck.Test.make ~name:"int_below in range" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int_below rng bound in
      v >= 0 && v < bound)

let test_rng_float_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0. || f >= 1. then Alcotest.fail "float out of range"
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

(* --- Zipf --- *)

let test_zipf_uniform_when_theta_zero () =
  let rng = Rng.create 1 in
  let z = Zipf.create ~n:10 ~theta:0. in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Zipf.draw rng z in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      if c < 800 || c > 1200 then
        Alcotest.failf "uniform bucket out of tolerance: %d" c)
    counts

let test_zipf_skew () =
  let rng = Rng.create 2 in
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let hot = ref 0 and total = 20_000 in
  for _ = 1 to total do
    if Zipf.draw rng z < 10 then incr hot
  done;
  (* With theta=0.99, the top-10 ranks carry a large share of the mass. *)
  if !hot < total / 4 then
    Alcotest.failf "zipf not skewed enough: hot=%d" !hot

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf draws in range" ~count:200
    QCheck.(pair small_int (int_range 1 500))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let z = Zipf.create ~n ~theta:0.9 in
      let v = Zipf.draw rng z and s = Zipf.scrambled rng z in
      v >= 0 && v < n && s >= 0 && s < n)

(* --- Stats --- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check int) "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.percentile s 0.5);
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Stats.percentile s 1.)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.)) "mean of empty" 0. (Stats.mean s);
  Alcotest.(check (float 0.)) "percentile of empty" 0. (Stats.percentile s 0.9)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a 1.;
  Stats.add b 3.;
  let m = Stats.merge a b in
  Alcotest.(check int) "merged count" 2 (Stats.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 2. (Stats.mean m)

let test_histogram () =
  let h = Stats.histogram ~bucket_width:1.0 in
  List.iter (Stats.hist_add h) [ 0.1; 0.2; 2.5 ];
  match Stats.hist_buckets h with
  | [ (0., 2); (1., 0); (2., 1) ] -> ()
  | other ->
    Alcotest.failf "unexpected buckets: %s"
      (String.concat ";"
         (List.map (fun (t, n) -> Printf.sprintf "(%.1f,%d)" t n) other))

(* --- Work --- *)

let test_work_measure () =
  let (), c = Work.measure (fun () -> ignore (Hash.of_string "x")) in
  Alcotest.(check int) "one hash measured" 1 c.Work.hashes;
  let (), c2 =
    Work.measure (fun () -> Work.note_node_write ~bytes:100)
  in
  Alcotest.(check int) "node write" 1 c2.Work.node_writes;
  Alcotest.(check int) "bytes" 100 c2.Work.bytes_written

let test_work_reset () =
  Work.note_hash ~n:3 ();
  Work.note_page_read ();
  Work.note_cache_hit ~n:2 ();
  Work.note_node_write ~bytes:7;
  Work.reset ();
  Alcotest.(check bool) "reset zeroes every counter" true
    (Work.snapshot () = Work.zero);
  Work.note_page_read ~n:4 ();
  Alcotest.(check int) "counting resumes from zero" 4
    (Work.snapshot ()).Work.page_reads

let test_work_add_sub () =
  let a =
    { Work.hashes = 5; node_writes = 4; bytes_written = 300; page_reads = 2;
      cache_hits = 1 }
  and b =
    { Work.hashes = 1; node_writes = 2; bytes_written = 100; page_reads = 2;
      cache_hits = 0 }
  in
  Alcotest.(check bool) "sub (add a b) b = a" true (Work.sub (Work.add a b) b = a);
  Alcotest.(check bool) "add zero is identity" true (Work.add a Work.zero = a);
  let d = Work.sub a b in
  Alcotest.(check (list int)) "componentwise difference" [ 4; 2; 200; 0; 1 ]
    [ d.Work.hashes; d.Work.node_writes; d.Work.bytes_written;
      d.Work.page_reads; d.Work.cache_hits ]

let test_work_attribution_switch () =
  Work.set_attribution false;
  Work.reset_attribution ();
  Alcotest.(check bool) "off" false (Work.attribution_enabled ());
  Work.with_component "c" (fun () -> Work.note_hash ());
  Alcotest.(check int) "nothing attributed while off" 0
    (List.length (Work.attribution ()));
  Work.set_attribution true;
  Work.with_component "c" (fun () -> Work.note_hash ~n:2 ());
  Alcotest.(check (list (pair string int))) "attributed while on" [ ("c", 2) ]
    (List.map (fun (c, w) -> (c, w.Work.hashes)) (Work.attribution ()));
  (* Switching off keeps the accumulated totals; only reset clears them. *)
  Work.set_attribution false;
  Work.set_attribution true;
  Alcotest.(check (list string)) "totals survive a toggle" [ "c" ]
    (List.map fst (Work.attribution ()));
  Work.reset_attribution ();
  Alcotest.(check int) "reset_attribution clears totals" 0
    (List.length (Work.attribution ()));
  Work.set_attribution false

(* --- Lhist --- *)

(* Merging two histograms is bucket-exact: the merged bucket list equals
   the histogram that saw every sample directly, so quantile estimates
   never depend on how the samples were partitioned across domains. *)
let test_lhist_merge_bucket_alignment () =
  let rng = Rng.create 7 in
  let xs = Array.init 500 (fun _ -> Rng.float rng *. 10.) in
  let a = Lhist.create () and b = Lhist.create () and all = Lhist.create () in
  Array.iteri (fun i x -> Lhist.add (if i mod 2 = 0 then a else b) x) xs;
  Array.iter (Lhist.add all) xs;
  let m = Lhist.merge a b in
  Alcotest.(check int) "count" (Lhist.count all) (Lhist.count m);
  Alcotest.(check (float 1e-9)) "sum" (Lhist.sum all) (Lhist.sum m);
  Alcotest.(check (float 0.)) "min" (Lhist.min_value all) (Lhist.min_value m);
  Alcotest.(check (float 0.)) "max" (Lhist.max_value all) (Lhist.max_value m);
  Alcotest.(check (list (triple (float 0.) (float 0.) int)))
    "buckets align" (Lhist.buckets all) (Lhist.buckets m);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%.0f" (p *. 100.))
        (Lhist.percentile all p) (Lhist.percentile m p))
    [ 0.5; 0.9; 0.99; 1.0 ]

let test_lhist_merge_incompatible () =
  let a = Lhist.create () in
  let b = Lhist.create ~buckets_per_octave:4 () in
  let c = Lhist.create ~lo:1e-6 () in
  Alcotest.check_raises "bucket count mismatch"
    (Invalid_argument "Lhist.merge: incompatible geometries") (fun () ->
      ignore (Lhist.merge a b));
  Alcotest.check_raises "lo mismatch"
    (Invalid_argument "Lhist.merge: incompatible geometries") (fun () ->
      ignore (Lhist.merge a c))

(* --- Stats spill-aware merge --- *)

let test_stats_merge_spilled () =
  (* Push one side past the spill threshold; the merge must stay exact on
     count/total/min/max and bucket-accurate on percentiles. *)
  let rng = Rng.create 11 in
  let n = 9000 in
  let xs = Array.init n (fun _ -> Rng.float rng *. 4.) in
  let a = Stats.create () and b = Stats.create () and all = Stats.create () in
  Array.iter (Stats.add a) xs;
  List.iter (Stats.add b) [ 0.25; 9.5 ];
  Array.iter (Stats.add all) xs;
  List.iter (Stats.add all) [ 0.25; 9.5 ];
  Alcotest.(check bool) "a spilled" false (Stats.is_exact a);
  Alcotest.(check bool) "b exact" true (Stats.is_exact b);
  let m = Stats.merge a b in
  Alcotest.(check bool) "merge spilled" false (Stats.is_exact m);
  Alcotest.(check int) "count" (n + 2) (Stats.count m);
  Alcotest.(check (float 1e-6)) "total" (Stats.total all) (Stats.total m);
  Alcotest.(check (float 0.)) "min" (Stats.min_value all) (Stats.min_value m);
  Alcotest.(check (float 0.)) "max" 9.5 (Stats.max_value m);
  (* [all] is also spilled, so both sides answer from the same histogram
     geometry: estimates must agree exactly. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%.0f" (p *. 100.))
        (Stats.percentile all p) (Stats.percentile m p))
    [ 0.5; 0.9; 0.99 ]

let test_stats_merge_both_spilled () =
  let rng = Rng.create 13 in
  let a = Stats.create () and b = Stats.create () and all = Stats.create () in
  for _ = 1 to 9000 do
    let x = Rng.float rng in
    Stats.add a x;
    Stats.add all x
  done;
  for _ = 1 to 9000 do
    let x = 1. +. Rng.float rng in
    Stats.add b x;
    Stats.add all x
  done;
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 18000 (Stats.count m);
  Alcotest.(check (float 1e-6)) "total" (Stats.total all) (Stats.total m);
  Alcotest.(check (float 0.)) "p50" (Stats.percentile all 0.5)
    (Stats.percentile m 0.5);
  Alcotest.(check (float 0.)) "p99" (Stats.percentile all 0.99)
    (Stats.percentile m 0.99)

(* --- Rng.split_n --- *)

let test_rng_split_n () =
  (* split_n is repeated split in index order: same child states, and the
     parent ends up at the same point. *)
  let a = Rng.create 42 and b = Rng.create 42 in
  let children = Rng.split_n a 8 in
  let expected = Array.init 8 (fun _ -> Rng.split b) in
  Alcotest.(check int) "eight streams" 8 (Array.length children);
  Array.iteri
    (fun i c ->
      Alcotest.(check int64)
        (Printf.sprintf "stream %d first draw" i)
        (Rng.int64 expected.(i)) (Rng.int64 c))
    children;
  Alcotest.(check int64) "parent advanced identically" (Rng.int64 b)
    (Rng.int64 a);
  Alcotest.(check int) "zero streams" 0 (Array.length (Rng.split_n a 0));
  Alcotest.check_raises "negative" (Invalid_argument "Rng.split_n") (fun () ->
      ignore (Rng.split_n a (-1)))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "util"
    [ ("sha256",
       [ Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
         Alcotest.test_case "padding boundaries" `Quick test_sha_padding_boundaries;
         Alcotest.test_case "hmac RFC4231" `Quick test_hmac_vectors;
         Alcotest.test_case "reset reuses the context" `Quick
           test_sha_reset_reuse;
         Alcotest.test_case "use after finalize raises" `Quick
           test_sha_use_after_finalize;
         Alcotest.test_case "digest_into offsets and bounds" `Quick
           test_sha_digest_into ]
       @ qsuite [ prop_incremental_matches_oneshot ]);
      ("hex",
       [ Alcotest.test_case "invalid input" `Quick test_hex_invalid ]
       @ qsuite [ prop_hex_roundtrip ]);
      ("hash",
       [ Alcotest.test_case "domain separation" `Quick test_hash_domain_separation;
         Alcotest.test_case "kv unambiguous" `Quick test_hash_kv_unambiguous;
         Alcotest.test_case "combine_feed streams" `Quick
           test_hash_combine_feed;
         Alcotest.test_case "hashes count digests" `Quick
           test_hash_counts_digests;
         Alcotest.test_case "feeder exception leaves contexts clean" `Quick
           test_hash_feeder_exception;
         Alcotest.test_case "primitives inside batch feeders" `Quick
           test_hash_combine_feed_primitives ]);
      ("codec",
       [ Alcotest.test_case "malformed input" `Quick test_codec_malformed;
         Alcotest.test_case "trailing bytes" `Quick test_codec_trailing ]
       @ qsuite [ prop_varint_roundtrip; prop_string_roundtrip; prop_list_roundtrip ]);
      ("rng",
       [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
         Alcotest.test_case "split independence" `Quick test_rng_split_independent;
         Alcotest.test_case "split_n" `Quick test_rng_split_n;
         Alcotest.test_case "float range" `Quick test_rng_float_range;
         Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation ]
       @ qsuite [ prop_int_below_in_range ]);
      ("zipf",
       [ Alcotest.test_case "uniform when theta=0" `Quick test_zipf_uniform_when_theta_zero;
         Alcotest.test_case "skewed when theta=0.99" `Quick test_zipf_skew ]
       @ qsuite [ prop_zipf_in_range ]);
      ("stats",
       [ Alcotest.test_case "basic accumulators" `Quick test_stats_basic;
         Alcotest.test_case "empty" `Quick test_stats_empty;
         Alcotest.test_case "merge" `Quick test_stats_merge;
         Alcotest.test_case "merge spilled + exact" `Quick test_stats_merge_spilled;
         Alcotest.test_case "merge both spilled" `Quick test_stats_merge_both_spilled;
         Alcotest.test_case "histogram" `Quick test_histogram ]);
      ("lhist",
       [ Alcotest.test_case "merge bucket alignment" `Quick
           test_lhist_merge_bucket_alignment;
         Alcotest.test_case "merge incompatible geometry" `Quick
           test_lhist_merge_incompatible ]);
      ("work",
       [ Alcotest.test_case "measure" `Quick test_work_measure;
         Alcotest.test_case "reset" `Quick test_work_reset;
         Alcotest.test_case "add and sub" `Quick test_work_add_sub;
         Alcotest.test_case "attribution switch" `Quick
           test_work_attribution_switch ]);
      ("pool",
       [ Alcotest.test_case "global_size is 1" `Quick (fun () ->
             Alcotest.(check int) "single domain" 1 (Pool.global_size ())) ]) ]
