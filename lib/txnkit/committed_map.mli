(** The multi-version committed-data map (Section 3.3.2, "asynchronous
    persistence").

    Commits land here first: each key holds a FIFO of pending versions, each
    stamped with the *predicted* block number in which the persister will
    place it.  Under batched persistence every block drains one pending
    version per key, so the prediction is the current persisted block plus
    the queue position; under per-transaction blocks the caller supplies its
    own prediction.  These predictions are what the server's
    deferred-verification promises are made of. *)

type t

val create : unit -> t

val predict : t -> persisted_block:int -> Kv.key -> int
(** Block number the next version of [key] will land in under batched
    persistence, where every block drains one pending version per key:
    [persisted_block] plus the key's queue depth plus one. *)

val add : t -> predicted:int -> Kv.key -> Kv.value -> Kv.txn_id -> unit
(** Queue a committed write with its predicted block number. *)

val latest : t -> Kv.key -> (Kv.value * int * Kv.txn_id) option
(** Newest pending version (value, predicted block, txn). *)

val pending_keys : t -> int

val drain_layer : t -> (Kv.key * Kv.value * Kv.txn_id) list
(** Pop the oldest pending version of every key — the contents of the next
    batched block.  Keys are returned sorted; empty when nothing pends. *)

val pop_key : t -> Kv.key -> (Kv.value * int * Kv.txn_id) option
(** Pop the oldest pending version of one key (per-transaction blocks). *)

val max_depth : t -> int
(** Deepest per-key queue = number of batched blocks a full drain builds. *)

val is_empty : t -> bool

val pending_versions : t -> Kv.key -> int

val clear : t -> unit
(** Forget everything (crash simulation: the map is volatile memory). *)

val fingerprint : t -> Glassdb_util.Hash.t
(** Content hash over the sorted bindings (every pending version, in queue
    order): equal iff the maps hold exactly the same versions.  The
    crash-replay tests compare a rebuilt map against pre-crash state. *)
