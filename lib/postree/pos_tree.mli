(** Pattern-Oriented Split tree: an immutable, Merkle-ised search tree whose
    nodes are formed by content-defined chunking (Section 3.3.1).

    Leaves hold sorted key/value items; each upper level indexes the chunks
    of the level below by (first key, chunk hash) until a single root chunk
    remains.  The root hash is therefore a digest of the whole map, lookups
    are O(log m), and — because chunk boundaries depend only on content —
    the tree is *structurally invariant*: any insertion order yields the
    same tree, and snapshots sharing content share nodes byte-for-byte in
    the backing {!Storage.Node_store}.

    Updates are batched and incremental: only the chunks containing touched
    keys (plus chunks absorbed by boundary shifts) are rebuilt, costing
    O(batch * log m) rather than O(m). *)

open Glassdb_util

type config = {
  store : Storage.Node_store.t;  (** chunks are persisted here (deduplicated) *)
  pattern_bits : int;            (** expected chunk size = [2^pattern_bits] *)
}

val config : ?pattern_bits:int -> Storage.Node_store.t -> config
(** Default [pattern_bits] = 5 (expected 32 items per chunk). *)

type t
(** An immutable snapshot. *)

val empty : config -> t
val is_empty : t -> bool
val cardinal : t -> int
val height : t -> int
(** Number of levels; 0 for the empty tree. *)

val root_hash : t -> Hash.t
(** [Hash.empty] for the empty tree. *)

val get : t -> string -> string option

val insert_batch : t -> (string * string) list -> t
(** Upsert a batch (later bindings win on duplicate keys); returns the new
    snapshot.  The old snapshot remains valid. *)

val bindings : t -> (string * string) list
(** All bindings in key order. *)

type proof
(** Serialized chunks along the root-to-leaf search path. *)

val proof_codec : proof Codec.codec
(** Wire codec.  Its [size_bytes] charges each chunk plus a fixed 4-byte
    frame (the modelled RPC framing), not the exact varint encoding; the
    multiproof and range-proof codecs below do the same. *)

val prove : t -> string -> proof
(** Proof of the key's presence-with-value or absence. *)

val verify : root:Hash.t -> key:string -> value:string option -> proof -> bool
(** Check a proof against a trusted root digest: [Some v] asserts the
    binding, [None] asserts absence. *)

val proof_chunks : proof -> string list
(** The serialized chunks the proof carries, root first — exposed so a
    caller merging several proofs can deduplicate shared chunks without
    re-encoding. *)

(* --- batched multiproofs --- *)

type multiproof
(** The distinct serialized chunks covering every root-to-leaf path of a
    key batch.  Chunks shared between paths — the root always, and most
    upper levels for clustered keys — appear exactly once, so a batch of k
    keys costs far fewer bytes and hashes than k independent proofs. *)

val multiproof_codec : multiproof Codec.codec

val prove_batch : t -> string list -> multiproof * (string * string option) list
(** One tree walk for the whole key set (deduplicated, sorted internally):
    each covered chunk is visited, charged, and serialized exactly once.
    Also returns the certified binding of every requested key, saving the
    caller a second walk. *)

val verify_batch :
  root:Hash.t -> items:(string * string option) list -> multiproof -> bool
(** Check every (key, value-or-absence) claim against a trusted root.  The
    shared chunk set is parsed and hashed once; each key then re-walks it
    from the root, so a dropped or tampered chunk fails every key routed
    through it. *)

val load : config -> Hash.t -> t option
(** Reconstruct the snapshot rooted at the given hash from the backing
    store (top-down; fetches are charged as page reads / cache hits).
    [None] when any chunk is missing or malformed.  This is how an evicted
    historical snapshot is rebuilt on demand. *)

val stats_nodes : t -> int
(** Total number of chunks across levels (for size accounting). *)

(* --- verifiable range queries --- *)

val bindings_range : t -> lo:string -> hi:string -> (string * string) list
(** Bindings with [lo <= key < hi], ascending. *)

type range_proof
(** The distinct chunks covering every root-to-leaf path that intersects
    the range; verification recurses into *every* intersecting child, so a
    server cannot omit entries (completeness) or inject them (soundness). *)

val range_proof_codec : range_proof Codec.codec

val prove_range : t -> lo:string -> hi:string -> range_proof

val verify_range :
  root:Hash.t -> lo:string -> hi:string ->
  bindings:(string * string) list -> range_proof -> bool
(** Checks that [bindings] is exactly the tree's content on [lo, hi). *)

val extract_range :
  root:Hash.t -> lo:string -> hi:string -> range_proof ->
  (string * string) list option
(** The bindings a valid proof certifies for [lo, hi); [None] when the
    proof is malformed, incomplete, or inconsistent with [root]. *)
