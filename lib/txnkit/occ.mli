(** Optimistic concurrency control with two-phase commit participation
    (Section 3.3.2).

    Each shard owns one [Occ.t].  A transaction is validated at *prepare*
    against the shard's committed versions and currently-prepared peers
    (read-write and write-write conflicts); on success its write keys stay
    locked until *commit* or *abort*.  The committed store itself lives
    outside this module — the caller supplies the current version of each
    key — so the same validator serves GlassDB and both baselines. *)


type t

val create : unit -> t

type verdict = Ok | Conflict of string
(** [Conflict reason] carries a human-readable cause for logging. *)

val prepare :
  t ->
  tid:Kv.txn_id ->
  current_version:(Kv.key -> Kv.version) ->
  Kv.rw_set ->
  verdict
(** Validate and, on success, register the transaction as prepared.
    A transaction id may only be prepared once at a time. *)

val commit : t -> tid:Kv.txn_id -> Kv.rw_set option
(** Release the prepared entry, returning its read/write set.  [None] if
    the transaction was not prepared (e.g. already aborted). *)

val abort : t -> tid:Kv.txn_id -> unit
(** Drop a prepared transaction; a no-op when unknown. *)

val prepared_count : t -> int

val is_prepared : t -> tid:Kv.txn_id -> bool
(** True while [tid] holds prepare state (used to make a retried prepare
    idempotent when only the response was lost). *)

val is_write_locked : t -> Kv.key -> bool
(** True while some prepared transaction intends to write the key. *)

val clear : t -> unit
(** Drop all prepared state (crash simulation). *)
