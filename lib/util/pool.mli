(** Deterministic fixed-size fork-join domain pool.

    GlassDB's hot paths — chunk hashing during a POS-tree build, multiproof
    assembly across blocks, per-shard persistence — are embarrassingly
    parallel, but the system's verifiability contract requires every run to
    produce byte-identical digests, proofs and (virtual-time) metrics.  The
    pool squares the two: tasks execute on worker domains in whatever
    temporal order the scheduler picks, but results are joined *in
    submission order*, and each task's {!Work} counters are captured on its
    domain and absorbed on the submitting domain in that same order.  A
    computation parallelized through the pool is therefore byte-identical
    to its serial execution at any pool size.

    Rules the call sites must follow (enforced by construction in this
    repository, see DESIGN.md §4g):
    - tasks must not mutate state shared with other tasks of the same
      batch — shared stores are touched serially by the caller at the join;
    - tasks must not perform simulator effects ([Sim.sleep], resources):
      the simulator is a single-domain coroutine scheduler, so parallelism
      lives *inside* a process's computation, never across the event loop;
    - nested submissions run inline on the calling task's domain, so
      helpers that use the pool themselves stay safe to call from tasks.

    Size 1 degrades to inline execution with no captures, no locks and no
    worker domains — the serial path, verbatim.  Lint rule D004 confines
    [Domain.spawn] / [Mutex.create] to this module; other subsystems that
    need a lock take a {!Lock.t}. *)

type t

val create : int -> t
(** [create size] spawns [size - 1] worker domains (the submitting domain
    itself executes tasks too).  [size >= 1]; raises [Invalid_argument]
    otherwise. *)

val shutdown : t -> unit
(** Stop and join the workers.  Idempotent.  Subsequent submissions run
    inline. *)

val parallel_map : cost:('a -> int) -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Map [f] over the array in tasks of consecutive elements.  Element
    results land at their input indices; equal to [Array.map f] including
    {!Work} accounting, at every pool size.

    [cost] is a per-item work estimate in arbitrary units (canonically
    bytes to hash); it is called once per element before submission, must
    be pure and must not depend on pool size.  When the batch's total cost
    falls below {!work_threshold}, the pool is bypassed entirely — zero
    task submissions, serial execution on the caller (reported to the
    profiler with [js_bypass = true]).  Otherwise tasks greedily take
    consecutive items until they hold at least [max work_threshold (total
    / 8×pool size)] units, so a run of tiny items shares a task while a
    huge item gets its own.

    If [f] raises, the first raise in input order is re-raised after the
    join; work of the tasks before the raising one is absorbed, work after
    it is dropped.  A map submitted from inside a task runs inline on that
    task's domain without consulting [cost]. *)

val work_threshold : int
(** The small-batch bypass threshold: 65536 cost units. *)

(** {2 The process-global pool}

    Library hot paths share one pool rather than threading a handle
    through every call: its size comes from the [GLASSDB_DOMAINS]
    environment variable (default 1 = serial) and can be reset
    programmatically, e.g. by the bench5 sweep. *)

val global : unit -> t
(** The shared pool, created on first use with {!global_size} workers. *)

val global_size : unit -> int
(** Current global pool size: the last {!set_global_size}, else
    [GLASSDB_DOMAINS], else 1. *)

val set_global_size : int -> unit
(** Replace the global pool (shutting down the previous one, if created).
    Must not be called while pool tasks are in flight. *)

(** {2 Profiling hooks}

    Mechanism only — policy lives in [Obs.Prof], which installs the hook
    record.  With a profiler installed, every job (parallel or top-level
    inline) is timed with the profiler's clock and reported to [pr_on_job]
    at the join, on the submitting domain, as one {!job_sample}: per-task
    claim wait (job publication to claim), run time, executing domain and
    item count.  Nested inline maps (from inside a task) report only an
    item count through [pr_on_nested_inline], which therefore must be
    domain-safe.  With no profiler installed the hot paths pay one atomic
    load; either way the pool's outputs are byte-identical. *)

type task_sample = {
  ts_domain : int;   (** 0 = submitting domain; workers are 1..size-1 *)
  ts_wait_s : float; (** job publication -> task claimed *)
  ts_run_s : float;
  ts_items : int;
}

type job_sample = {
  js_pool_size : int;
  js_tasks : int;
  js_chunk : int;     (** items per task, rounded up *)
  js_items : int;
  js_cost : int;      (** total declared cost *)
  js_span_s : float;  (** publication -> join *)
  js_inline : bool;   (** ran serially on the caller *)
  js_bypass : bool;   (** inline because total cost < {!work_threshold} *)
  js_samples : task_sample array;
}

type profiler = {
  pr_clock : unit -> float;
  pr_on_job : job_sample -> unit;
  pr_on_nested_inline : int -> unit;
}

val set_profiler : profiler option -> unit
(** Install (or remove) the process-global profiler.  Not synchronized
    with in-flight jobs: install while the pool is quiescent. *)

(** {2 Locks}

    The one sanctioned mutex constructor outside this module's internals:
    domain-safe shared structures (the node store's cache shards, the
    metrics registry) guard themselves with a [Lock.t] instead of an
    ambient [Mutex.create] (lint rule D004). *)
module Lock : sig
  type lock

  val create : ?name:string -> unit -> lock
  (** A named lock additionally registers itself for contention
      accounting: while a profiler is installed, [with_lock] counts
      acquires, contended acquires (detected by a failed [try_lock] fast
      path), acquire-wait and hold time against the name.  Locks sharing a
      name (e.g. one per store shard) aggregate in {!snapshot}. *)

  val with_lock : lock -> (unit -> 'a) -> 'a
  (** Run [f] holding the lock; released on exception. *)

  (** Per-name aggregate of every named lock's counters. *)
  type snapshot = {
    sn_name : string;
    sn_locks : int;      (** locks sharing this name *)
    sn_acquires : int;
    sn_contended : int;
    sn_wait_s : float;
    sn_max_wait_s : float;
    sn_hold_s : float;
  }

  val snapshot : unit -> snapshot list
  (** Sorted by name; deterministic for a deterministic execution.  Only
      instances acquired since the last {!reset_stats} are aggregated, so
      locks of torn-down structures from earlier runs don't skew
      [sn_locks]. *)

  val reset_stats : unit -> unit
  (** Zero every registered lock's counters (the locks themselves are
      untouched). *)

end
