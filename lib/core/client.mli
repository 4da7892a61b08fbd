(** GlassDB client session (Section 3.2.1 APIs).

    The client is the two-phase-commit coordinator: it buffers writes,
    executes reads against the owning shards, and on commit runs
    prepare/commit rounds across every shard involved.  It caches each
    shard's latest digest, holds the server's deferred-verification
    promises, and checks every proof it receives — updating the digest only
    when the append-only proof from the previously cached digest verifies.
    It also keeps a bounded cache of the proof chunks it has already
    verified ({!Postree.Pos_tree.Chunk_cache}), so a chunk that arrives again
    byte for byte is not hashed again.

    Transactions, retries and 2PC cleanup are the shared layer's
    ({!Vlayer.Dist}); timeouts, retries and the verification delay come
    from the cluster's {!Config.t}. *)

module Kv = Txnkit.Kv

type t

val create : Cluster.t -> id:int -> sk:string -> t

val id : t -> int
val public_key : t -> string
(** Registered with auditors (HMAC model: equals the signing key). *)

(* --- transactions --- *)

type handle = Cluster.Rpc.Client.handle

exception Abort of Glassdb_util.Error.t
(** {!Cluster.Rpc.Client.Abort}: raised inside {!execute}'s body by failed
    reads; turns into [Error _] after the abort round. *)

val execute :
  t -> (handle -> 'a) ->
  ('a * Node.promise list, Glassdb_util.Error.t) result
(** {!Cluster.Rpc.Client.execute}, with the committed shards' promises
    concatenated. *)

val get : handle -> Kv.key -> Kv.value option
val put : handle -> Kv.key -> Kv.value -> unit

(* --- verified operations: the benchmark's VerifiedPut / VerifiedGetLatest
   / VerifiedGetAt --- *)

type verification = {
  v_ok : bool;
  v_proof_bytes : int;
  v_latency : float;
  v_keys : int;
}

val queue_promises : t -> Node.promise list -> unit
(** Schedule commit promises for deferred verification after the
    configured delay (used by the verified transaction workloads). *)

val verified_put :
  t -> Kv.key -> Kv.value -> (Node.promise, Glassdb_util.Error.t) result
(** Write via a single-key transaction; the promise is queued for deferred
    verification after [verify_delay]. *)

val verified_get_latest :
  t -> Kv.key ->
  (Kv.value option * verification, Glassdb_util.Error.t) result
(** Current-value read with proof, checked against the cached digest. *)

val verified_get_at :
  t -> Kv.key -> block:int ->
  (Kv.value option * verification, Glassdb_util.Error.t) result
(** Historical read with inclusion + append-only proof. *)

val get_history :
  t -> Kv.key -> n:int -> ((Kv.value * int) list, Glassdb_util.Error.t) result
(** Unverified history walk (used by VerifiedWarehouseBalance together with
    per-version proofs): up to [n] (value, block) pairs, newest first.
    [Ok []] is a key with no history; an unreachable shard is an [Error]. *)

val pending_verifications : t -> int

val flush_verifications : t -> ?force:bool -> unit -> verification list
(** Verify every promise whose delay has elapsed ([force] = all), batching
    promises by shard so proofs share chunks.  Promises whose block is not
    yet persisted stay queued. *)

val digest_of_shard : t -> int -> Ledger.digest
(** The client's current view (for auditing / gossip). *)

val adopt_digest : t -> shard:int -> Ledger.digest -> unit
(** Replace the cached digest for [shard] — restoring a view saved out of
    band (another device, a backup).  The next gossip or verified read
    cross-checks it against the server's chain, so a forked digest
    surfaces as [Proof_invalid]. *)

val gossip : t -> t -> (unit, Glassdb_util.Error.t) result
(** Exchange digests with another user (Section 3.4.2): the staler view
    advances when the server proves the fresher one extends it.
    [Error (Proof_invalid _)] means the two views fork — a detected
    equivocation (it takes precedence over transport errors); proof
    fetches retry through packet loss. *)

val verification_failures : t -> int
(** Count of proof checks that failed — non-zero means a detected attack
    or bug; benchmarks assert it stays zero. *)

val rpc_retry_count : t -> int
val coordinator_aborts : t -> Kv.txn_id list
(** As in {!Cluster.Rpc.Client}. *)
