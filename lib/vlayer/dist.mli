(** The shared distributed layer: one RPC fabric and one client-coordinated
    two-phase commit for GlassDB and both baselines.

    The paper implements QLDB*, LedgerDB* and GlassDB "on top of the same
    distributed layer ... the same 2PC implementation" so that performance
    differences come from the authenticated-storage designs alone.  This
    functor is that layer: hash partitioning, RPCs with fault notes and
    measured service-time charging, bounded retries, and 2PC with OCC
    validation at each shard and unconditional abort cleanup.  The systems
    differ only in their node and in what a node's commit returns. *)

module Kv = Txnkit.Kv

module type NODE = sig
  type t

  type commit_result
  (** What a shard answers to commit: GlassDB's promises, or [unit]. *)

  val commit_result_bytes : commit_result -> int
  (** Response size of a commit, for transfer charging. *)

  val alive : t -> bool
  val workers : t -> Sim.Resource.t
  val disk : t -> Sim.Resource.t
  val cost : t -> Cost.t
  val note_phase : t -> string -> float -> unit

  val commit_lock : t -> Sim.Resource.t option
  (** When set, commit handlers serialize on this resource — QLDB*'s
      whole-tree lock during its synchronous Merkle update. *)

  val prepare : t -> rw:Kv.rw_set -> Kv.signed_txn -> Txnkit.Occ.verdict
  (** [rw] is the shard-local slice; the signed transaction covers the whole
      read/write set (signed once by the client). *)

  val commit : t -> ?ctx:Obs.Trace.ctx -> Kv.txn_id -> commit_result
  (** [ctx] is the client's commit span, for nodes that trace work the
      commit starts. *)

  val abort : t -> Kv.txn_id -> unit
  val read : t -> Kv.key -> (Kv.value * Kv.version) option
end

module type S = sig
  type node
  type commit_result
  type t

  val create :
    net:Net.t -> rpc_timeout:float -> rpc_retries:int -> retry_backoff:float ->
    node array -> t
  (** [rpc_timeout] bounds each attempt; [rpc_retries] attempts follow the
      first, after [retry_backoff] seconds doubled per retry. *)

  val shards : t -> int
  val node : t -> int -> node
  val nodes : t -> node array
  val shard_of_key : t -> Kv.key -> int

  val charge : node -> (unit -> 'a) -> 'a
  (** Run a handler and charge its measured work as service time: CPU
      inline, IO through the node's disk.  RPC handlers and background
      persistence both pay through it. *)

  val call :
    t -> ?phase:string * int -> ?ctx:Obs.Trace.ctx -> ?lock:Sim.Resource.t ->
    shard:int -> req_bytes:int -> resp_bytes:('a -> int) -> (node -> 'a) ->
    ('a, Glassdb_util.Error.t) result
  (** One RPC: request transfer, queue for a worker (inside [lock] when
      given), execute the handler through {!charge}, response transfer.
      Errors are typed — [Node_down] when the shard is crashed, [Timeout]
      when the request or response was dropped — and always surface after
      the caller has slept out the full [rpc_timeout], exactly like a
      timed-out wire.  Note a [Timeout] on the response leg means the
      handler DID run.

      [phase = (name, keys)] records the server-side latency per key under
      [name].  [ctx] is the caller's trace context, carried in the message
      envelope: the server-side span is parented on it, and any
      fault-injected drop or delay on either leg is annotated against it as
      a [net.drop] / [net.delay] instant on the shard's track. *)

  module Client : sig
    type c
    type handle

    exception Abort of Glassdb_util.Error.t
    (** Raised inside {!execute}'s body by failed reads (node down, timeout
        after retries); turns into [Error _] after the abort round. *)

    val create : t -> id:int -> sk:string -> c
    val id : c -> int

    val with_retry :
      c -> ?ctx:Obs.Trace.ctx -> label:string ->
      (unit -> ('a, Glassdb_util.Error.t) result) ->
      ('a, Glassdb_util.Error.t) result
    (** Retry through {!Glassdb_util.Error.retryable} errors with the
        cluster's bounded exponential backoff, leaving an [rpc.retry] marker
        under [ctx] and bumping [glassdb.client.rpc_retries] per retry. *)

    val execute :
      c -> (handle -> 'a) ->
      ('a * commit_result list, Glassdb_util.Error.t) result
    (** Run a transaction body; on success returns its value plus each
        committed shard's commit result, in shard order.  The commit point
        runs retried prepare and commit rounds across the shards touched;
        any abort path (body exception, conflict, exhausted retries) first
        runs a retried abort round on every contacted shard and records the
        abort on the coordinator (see {!coordinator_aborts}). *)

    val get : handle -> Kv.key -> Kv.value option
    (** Read within the transaction (read-your-writes on buffered puts). *)

    val put : handle -> Kv.key -> Kv.value -> unit

    val rpc_retry_count : c -> int
    (** RPC attempts beyond the first, across all operations. *)

    val coordinator_aborts : c -> Kv.txn_id list
    (** Coordinator-side abort records, oldest first. *)
  end
end

module Make (N : NODE) :
  S with type node = N.t and type commit_result = N.commit_result
