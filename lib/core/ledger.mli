(** GlassDB's ledger storage: the two-level POS-tree (Section 3.3.1).

    The *lower* level is a POS-tree over the complete database state; every
    block appends a copy-on-write snapshot of it, and the snapshot's root —
    together with chain metadata — forms the block header.  The *upper*
    level is a POS-tree indexing block headers by block number; its root is
    the ledger digest.  Value leaves carry the block where the previous
    version lives, so history walks are pointer chases.

    Proof kinds (Section 2.2):
    - {!prove_inclusion}: key/value bound in a given block,
    - current-value: an inclusion proof for the digest's own latest block
      (the lower tree holds the whole state, so the latest value is always
      in the right-most block),
    - {!prove_append_only}: the old head block header is contained unchanged
      in the new upper tree; headers hash-chain to their predecessors. *)

open Glassdb_util
module Kv = Txnkit.Kv

type config = {
  store : Storage.Node_store.t;
  pattern_bits : int;
  snapshot_retention : int;
      (** how many recent per-block snapshots stay resident; older blocks
          are rebuilt on demand from the store via their header's state
          root *)
}

val config :
  ?pattern_bits:int -> ?snapshot_retention:int -> Storage.Node_store.t -> config
(** Defaults: [pattern_bits] = 5, [snapshot_retention] = 8. *)

type header = {
  block_no : int;
  state_root : Hash.t;   (** lower-tree root after this block *)
  prev_hash : Hash.t;    (** hash of the previous header; [Hash.empty] at 0 *)
  body_root : Hash.t;    (** hash over the block's writes and signed txns *)
  n_writes : int;
  time : float;          (** virtual creation time *)
}

val header_hash : header -> Hash.t

type digest = { block_no : int; root : Hash.t; head : Hash.t }
(** What clients cache and auditors gossip: latest block number, upper-tree
    root, and the latest header's hash.  [genesis] for the empty ledger. *)

val genesis : digest
val digest_equal : digest -> digest -> bool

type block_write = { wkey : Kv.key; wvalue : Kv.value; wtid : Kv.txn_id }
(** One committed write: the key, its new value, and the transaction that
    produced it. *)

type t
(** A ledger version.  Versions form one linear history: each
    {!append_block} returns the successor version while older values stay
    readable.  The flat committed map backing latest-state reads is shared
    across the history's versions; forking two successors from the same
    version is not supported. *)

val create : config -> t
val latest_block : t -> int
(** -1 when empty. *)

val digest : t -> digest
val key_count : t -> int

val append_block :
  t -> time:float -> writes:block_write list -> txns:Kv.signed_txn list -> t
(** The only write path (DESIGN.md §4j): append one block holding
    [writes] — at most one version per key, [Invalid_argument] otherwise.
    The writes go through one [Pos_tree.insert_batch] and one root
    recompute, and the flat committed map absorbs their payloads.  [txns]
    are the signed transactions vouching for the writes, kept for
    auditing. *)

val get : ?block:int -> t -> Kv.key -> (Kv.value * int * int) option
(** (value, version block, previous-version block or -1) as of [block]
    (default: latest).  [None] when the key is absent or the block does not
    exist.  Latest-state reads are answered by the flat committed map;
    historical reads walk the block's POS-tree snapshot. *)

val get_history : t -> Kv.key -> n:int -> (Kv.value * int) list
(** Up to [n] most recent versions, newest first, by prev-block walks. *)

val header_at : t -> int -> header option
val writes_of_block : t -> int -> block_write list
val txns_of_block : t -> int -> Kv.signed_txn list

val resident_snapshots : t -> int
(** Snapshots currently held in memory (bounded by [snapshot_retention]). *)

(* --- proofs ---

   Every proof below is anchored the same way: the block's serialized
   header plus its path in the upper tree.  A verifier first decodes the
   header, checks that it names the proof's block, that the block is no
   newer than its digest, and that the header sits at that block in the
   digest's upper tree; the lower-tree part (one key, a key batch or a
   range, all {!Postree.Pos_tree} proofs) is then checked against the
   header's state root, and every certified payload must be no newer
   than the block.  Every verifier takes an optional
   {!Postree.Pos_tree.Chunk_cache.t}, which it passes to each tree proof
   it checks; the verdict does not depend on it. *)

type proof = {
  p_block : int;
  p_header : string;            (** serialized header *)
  p_upper : Postree.Pos_tree.proof;
  p_lower : Postree.Pos_tree.proof;
  p_payload : string option;    (** encoded leaf payload; None = absent *)
}

val proof_codec : proof Codec.codec

val prove_inclusion : t -> Kv.key -> block:int -> proof
(** Raises [Invalid_argument] when the block does not exist. *)

val prove_current : t -> Kv.key -> proof

val verify_inclusion :
  ?cache:Postree.Pos_tree.Chunk_cache.t ->
  digest:digest -> key:Kv.key -> value:Kv.value option -> proof -> bool
(** Checks the proof binds [key] to [value] in block [p_block] of the
    ledger identified by [digest]. *)

val verify_current :
  ?cache:Postree.Pos_tree.Chunk_cache.t ->
  digest:digest -> key:Kv.key -> value:Kv.value option -> proof -> bool
(** Additionally requires the proof to come from the digest's own latest
    block — the freshness condition. *)

(* --- batched inclusion proofs --- *)

type batch_proof = {
  bp_block : int;
  bp_header : string;               (** serialized header *)
  bp_upper : Postree.Pos_tree.proof;
  bp_lower : Postree.Pos_tree.proof;
  bp_items : (Kv.key * string option) list;
      (** certified (key, encoded payload or absent) per requested key *)
}
(** One header, one upper-tree path, and one lower-tree walk cover a
    whole key batch: chunks shared between the keys' search paths ship and
    hash once.  This is what a shard returns for a deferred-verification
    flush. *)

val batch_proof_codec : batch_proof Codec.codec

val prove_inclusion_batch : t -> Kv.key list -> block:int -> batch_proof
(** Proof for all [keys] (deduplicated, order-insensitive) in one block.
    Raises [Invalid_argument] when the block does not exist. *)

val prove_inclusion_batches : t -> (int * Kv.key list) list -> batch_proof list
(** One batch proof per [(block, keys)] group, in input order: mapping
    {!prove_inclusion_batch} over the groups.  Raises [Invalid_argument]
    when any block does not exist. *)

val verify_inclusion_batch :
  ?cache:Postree.Pos_tree.Chunk_cache.t -> digest:digest -> batch_proof -> bool
(** Checks header and upper-tree inclusion once, then the lower proof for
    every item, including payload version sanity. *)

val batch_proof_value :
  batch_proof -> Kv.key -> Kv.value option option
(** What a verified proof certifies for [key]: [Some (Some v)] a binding,
    [Some None] absence, [None] key not covered (or payload malformed). *)

type append_proof

val append_proof_codec : append_proof Codec.codec

val prove_append_only : t -> old_block:int -> append_proof
(** Proof that the ledger at [old_block] is a prefix of the current one. *)

val verify_append_only :
  ?cache:Postree.Pos_tree.Chunk_cache.t ->
  old_digest:digest -> new_digest:digest -> append_proof -> bool

(* --- verifiable range scans --- *)

type scan_proof
(** Header inclusion in the upper tree plus a lower-tree range proof whose
    verification recurses into every intersecting subtree — the server can
    neither omit nor inject rows. *)

val prove_scan : t -> lo:Kv.key -> hi:Kv.key -> ?block:int -> unit -> scan_proof
(** Proof for the rows with [lo <= key < hi] as of [block] (default:
    latest).  Raises [Invalid_argument] when the block does not exist. *)

val scan : ?block:int -> t -> lo:Kv.key -> hi:Kv.key -> (Kv.key * Kv.value) list

val verify_scan :
  ?cache:Postree.Pos_tree.Chunk_cache.t ->
  digest:digest -> lo:Kv.key -> hi:Kv.key ->
  rows:(Kv.key * Kv.value) list -> scan_proof -> bool

(* --- leaf payload codec (shared with the auditor's re-execution) --- *)

val encode_payload : value:Kv.value -> version:int -> prev:int -> string
val decode_payload : string -> Kv.value * int * int
