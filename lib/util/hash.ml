type t = string

let size = 32
let equal = String.equal
let compare = String.compare

(* Every digest goes through a reused module-level context (reset + feed +
   finalize) instead of allocating a fresh Sha256.t per call — the hot
   paths (chunk hashing and verification) issue millions of these.
   Two contexts, not one: the aggregate ops ([combine]/[combine_feed])
   drive feeders that may themselves call the primitive ops
   (e.g. memoizing an item's [kv] hash mid-combine), so primitives and
   aggregates must not share a context.  No same-context nesting: a
   feeder must not call the aggregate ops, or it would clobber the
   in-flight state. *)
let prim = Sha256.init ()
let agg = Sha256.init ()

let prim_digest fill =
  Work.note_hash ();
  Sha256.reset prim;
  fill prim;
  Sha256.finalize prim

let of_string s = prim_digest (fun c -> Sha256.feed_string c s)

let empty = Sha256.digest_string ""

let leaf data =
  prim_digest (fun c ->
      Sha256.feed_string c "\x00";
      Sha256.feed_string c data)

let interior l r =
  prim_digest (fun c ->
      Sha256.feed_string c "\x01";
      Sha256.feed_string c l;
      Sha256.feed_string c r)

let kv k v =
  prim_digest (fun c ->
      Sha256.feed_string c "\x03";
      Sha256.feed_string c (string_of_int (String.length k));
      Sha256.feed_string c "\x00";
      Sha256.feed_string c k;
      Sha256.feed_string c v)

let combine_feed fill =
  Work.note_hash ();
  Sha256.reset agg;
  Sha256.feed_string agg "\x02";
  fill (fun s -> Sha256.feed_string agg s);
  Sha256.finalize agg

let combine hs = combine_feed (fun push -> List.iter push hs)

let short h = Hex.encode_prefix ~n:4 h
let pp fmt h = Format.pp_print_string fmt (short h)
