(** QLDB* — the paper's reimplementation of Amazon QLDB (Section 5.1,
    Figure 1).

    Per shard: a transaction ledger (Merkle history tree over committed
    transaction entries) and an *unprotected* B+-tree index holding the
    materialized latest values.  The Merkle tree is updated synchronously
    inside commit — persisting the authenticated structure sits in the
    critical path, which is QLDB's defining performance cost (Figure 7a
    folds its persist cost into commit).

    Proofs: inclusion and append-only proofs are Merkle-log proofs,
    O(log N).  The index carries no hashes, so a *current-value* proof
    must additionally cover every ledger entry after the value's
    transaction to show no later write touched the key — the O(N) scan of
    Table 1, shipped as per-entry key fingerprints. *)

open Glassdb_util
module Kv = Txnkit.Kv

type config = {
  workers : int;
  cost : Cost.t;
  queue_capacity : int;
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

  val commit_lock : t -> Sim.Resource.t option
  val prepare : t -> rw:Kv.rw_set -> Kv.signed_txn -> Txnkit.Occ.verdict

  type commit_result = unit

  val commit_result_bytes : commit_result -> int
  val commit : t -> ?ctx:Obs.Trace.ctx -> Kv.txn_id -> commit_result
  val abort : t -> Kv.txn_id -> unit
  val read : t -> Kv.key -> (Kv.value * Kv.version) option

  val write_locked : t -> Kv.key -> bool
  (** Some prepared transaction holds the key's write lock. *)

  val log_size : t -> int
  val storage_bytes : t -> int

  type digest = { size : int; root : Hash.t }

  val digest : t -> digest

  type current_proof = {
    cp_seq : int;                       (** entry holding the latest write *)
    cp_entry : string;                  (** serialized transaction entry *)
    cp_inclusion : Mtree.Merkle_log.proof;
    cp_scan : string list;              (** key fingerprints of every later entry *)
    cp_digest : digest;
  }

  val current_proof_bytes : current_proof -> int

  val get_verified_latest : t -> Kv.key -> current_proof option
  (** [None] when the key has never been written. *)

  val verify_current :
    digest:digest -> key:Kv.key -> value:Kv.value -> current_proof -> bool
  (** Client-side check: inclusion of the entry, the entry binds key to
      value, and no later entry's fingerprint covers the key. *)

  val append_only_proof : t -> old_size:int -> Mtree.Merkle_log.proof

  val verify_append_only :
    old:digest -> new_:digest -> Mtree.Merkle_log.proof -> bool

  val crash : t -> unit
  val recover : t -> unit
end

module Cluster :
  Vlayer.Dist.S with type node = Node.t and type commit_result = unit
