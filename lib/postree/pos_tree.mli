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

val bindings_range : t -> lo:string -> hi:string -> (string * string) list
(** Bindings with [lo <= key < hi], ascending. *)

val load : config -> Hash.t -> t option
(** Reconstruct the snapshot rooted at the given hash from the backing
    store (top-down; fetches are charged as page reads / cache hits).
    [None] when any chunk is missing or malformed.  This is how an evicted
    historical snapshot is rebuilt on demand. *)

val stats_nodes : t -> int
(** Total number of chunks across levels (for size accounting). *)

(* --- proofs ---

   Every proof is the list of serialized chunks that one walk from the
   root enters, depth first with children left to right, each chunk once.
   For a key set the walk enters, at each index chunk, the children the
   keys route to; for a range, every child whose key span intersects it.
   Verification replays that walk over the list: each step consumes the
   next chunk, which must parse, be non-empty and hash to the pointer that
   led to it, and the walk must consume the whole list.  So a proof is
   accepted only in its one canonical form: padded, duplicated or
   reordered chunk lists are rejected, and so is any non-empty proof for an
   empty key set, an empty range or an empty tree. *)

type proof
(** The serialized chunks one walk enters, root first. *)

val proof_codec : proof Codec.codec
(** Wire codec.  Its [size_bytes] charges each chunk plus a fixed 4-byte
    frame (the modelled RPC framing), not the exact varint encoding. *)

val prove_batch : t -> string list -> proof * (string * string option) list
(** One walk for the whole key set (deduplicated and sorted internally):
    each chunk on a covered root-to-leaf path is entered, charged as one
    page read and serialized once, so chunks shared between paths ship
    once.  Also returns the binding of every requested key, in key order. *)

val prove : t -> string -> proof
(** [fst (prove_batch t [key])]: the proof of one key's presence-with-value
    or absence. *)

val prove_range : t -> lo:string -> hi:string -> proof
(** The walk over every chunk whose span intersects [lo, hi); empty when
    [lo >= hi] or the tree is empty. *)

(** A verifier's bounded cache of chunks it has already checked: chunk
    hash to the exact bytes that hashed to it.  Every verifier below takes
    one as [?cache]; the verdict is the same with or without it.  A proof
    chunk that is byte-for-byte a cached one for the pointer that led to it
    is parsed but not hashed; any other chunk gets the full check and, once
    it hashes to its pointer, enters the cache. *)
module Chunk_cache : sig
  type t

  val capacity : int
  (** Most entries a cache holds; the oldest entry is evicted first. *)

  val create :
    ?on_hit:(bytes:int -> unit) -> ?on_miss:(bytes:int -> unit) -> unit -> t
  (** [on_hit] / [on_miss] see every chunk a verifier looks up, with its
      size in bytes. *)

  val length : t -> int
end

val verify_batch :
  ?cache:Chunk_cache.t ->
  root:Hash.t -> items:(string * string option) list -> proof -> bool
(** Replay the key-set walk against a trusted root and check every (key,
    value-or-absence) claim: [Some v] asserts the binding, [None] absence.
    Each chunk not in [cache] is hashed once. *)

val verify :
  ?cache:Chunk_cache.t ->
  root:Hash.t -> key:string -> value:string option -> proof -> bool
(** [verify_batch] with one item. *)

val extract_range :
  ?cache:Chunk_cache.t ->
  root:Hash.t -> lo:string -> hi:string -> proof ->
  (string * string) list option
(** Replay the range walk: the bindings a valid proof certifies for
    [lo, hi), or [None] when the proof is malformed, incomplete, not
    canonical or inconsistent with [root].  Completeness holds because the
    walk enters every intersecting child, so a server can neither omit nor
    inject entries. *)

val verify_range :
  ?cache:Chunk_cache.t ->
  root:Hash.t -> lo:string -> hi:string ->
  bindings:(string * string) list -> proof -> bool
(** Checks that [bindings] is exactly the tree's content on [lo, hi). *)
