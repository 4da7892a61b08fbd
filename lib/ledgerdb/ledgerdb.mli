(** LedgerDB* — the paper's reimplementation of LedgerDB (Section 5.1,
    Figure 2).

    Per shard: a transaction journal; a *clue index* (one skip list per
    key, entries pointing at the journal positions that wrote the key); a
    batch-accumulated Merkle tree (bAMT) over journal entries, updated
    asynchronously in batches; and a clue-counter Merkle Patricia Trie
    (ccMPT) whose leaves hold only the *size* of each clue index.  The
    roots of bAMT and ccMPT are chained into blocks.

    As the paper observes, the ccMPT protects the clue counts but not the
    clue pointers, so a verifying client must fetch a bAMT inclusion proof
    for *every* clue entry of the key — the per-key proof grows with the
    key's version count, and the count itself is what the ccMPT certifies. *)

open Glassdb_util
module Kv = Txnkit.Kv

type config = {
  workers : int;
  cost : Cost.t;
  queue_capacity : int;
  batch_interval : float; (** bAMT/ccMPT update period *)
}

val default_config : config

module Node : sig
  type t

  val create : config -> shard_id:int -> t
  val shard_id : t -> int
  val alive : t -> bool
  val workers : t -> Sim.Resource.t
  val disk : t -> Sim.Resource.t
  val cost : t -> Cost.t
  val note_phase : t -> string -> float -> unit
  val phase_stats : t -> (string * Stats.t) list
  val commit_count : t -> int
  val abort_count : t -> int
  val reset_stats : t -> unit
  val config_of : t -> config

  val commit_lock : t -> Sim.Resource.t option
  val prepare : t -> rw:Kv.rw_set -> Kv.signed_txn -> Txnkit.Occ.verdict

  type commit_result = unit

  val commit_result_bytes : commit_result -> int
  val commit : t -> ?ctx:Obs.Trace.ctx -> Kv.txn_id -> commit_result
  val abort : t -> Kv.txn_id -> unit
  val read : t -> Kv.key -> (Kv.value * Kv.version) option

  val write_locked : t -> Kv.key -> bool
  (** Some prepared transaction holds the key's write lock. *)

  val flush_batch : t -> int
  (** Fold the journal tail into the bAMT, refresh the ccMPT counts, and
      append a chain block; returns the number of journal entries folded.
      Run by a background process every [batch_interval]. *)

  val journal_size : t -> int
  val storage_bytes : t -> int
  val block_count : t -> int

  type digest = { d_block : int; d_bamt : Hash.t; d_size : int; d_ccmpt : Hash.t }

  val digest : t -> digest

  type current_proof = {
    lp_seq : int;                         (** journal seq of latest write *)
    lp_entry : string;
    lp_count : int;                       (** clue count claimed *)
    lp_ccmpt : Mtree.Mpt.proof;           (** count under the ccMPT root *)
    lp_clues : (int * string * Mtree.Merkle_log.proof) list;
        (** every clue entry: (seq, entry, bAMT inclusion) *)
    lp_digest : digest;
  }

  val current_proof_bytes : current_proof -> int

  val get_verified_latest : t -> Kv.key -> current_proof option
  (** [None] when the key is unwritten or its latest write is not yet
      covered by the bAMT (deferred verification window). *)

  val verify_current :
    digest:digest -> key:Kv.key -> value:Kv.value -> current_proof -> bool

  val append_only_proof : t -> old_size:int -> Mtree.Merkle_log.proof
  val verify_append_only :
    old:digest -> new_:digest -> Mtree.Merkle_log.proof -> bool

  val crash : t -> unit
  val recover : t -> unit
end

module Cluster :
  Vlayer.Dist.S with type node = Node.t and type commit_result = unit
