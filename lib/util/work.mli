(** Work counters, accumulated per domain.

    Every hash computation, authenticated-structure node write and backend
    page access in the repository increments these counters.  The benchmark
    harness snapshots them around an operation and charges simulated service
    time proportional to the *measured* work, so relative system performance
    in the simulation is driven by real algorithmic differences rather than
    hard-coded constants.

    The accumulators live in domain-local storage: code running inside a
    {!Pool} task charges its own domain without synchronization, and the
    pool merges each task's work back into the submitting domain in
    submission order via {!capture}/{!absorb} — so totals and attribution
    are byte-identical to a serial run at any pool size.  All read/reset
    entry points below act on the calling domain's accumulators. *)

type counters = {
  hashes : int;        (** SHA-256 compression-level invocations *)
  node_writes : int;   (** authenticated-structure nodes persisted *)
  bytes_written : int; (** bytes of those nodes *)
  page_reads : int;    (** backend page / node fetches *)
  cache_hits : int;    (** node fetches served from a decoded-chunk cache *)
}

val zero : counters
val add : counters -> counters -> counters
val sub : counters -> counters -> counters
(** [sub later earlier] — componentwise difference. *)

val note_hash : ?n:int -> unit -> unit
val note_node_write : bytes:int -> unit
val note_page_read : ?n:int -> unit -> unit
val note_cache_hit : ?n:int -> unit -> unit

val snapshot : unit -> counters
val reset : unit -> unit

val measure : (unit -> 'a) -> 'a * counters
(** Run a thunk and return the work it performed.  Exception-safe: an
    escaping exception is re-raised with its original backtrace, and the
    work performed before the raise remains in the global counters (and in
    the current attribution component, if any). *)

(** {2 Per-component attribution}

    A scoped component stack over the global counters: code wraps its work
    in {!with_component}, and the deltas accrued directly inside the scope
    — excluding nested scopes — are accumulated per component name.  This
    is what breaks the global hash / page-read / node-write totals down
    into postree vs ledger vs WAL vs proof-serving.  Disabled by default;
    when disabled, {!with_component} is a single flag check. *)

val attribution_enabled : unit -> bool

val set_attribution : bool -> unit
(** Turning attribution off also discards any open frames. *)

val reset_attribution : unit -> unit
(** Clear the accumulated per-component totals (and any open frames). *)

val with_component : string -> (unit -> 'a) -> 'a
(** [with_component c f] runs [f], attributing the counter deltas accrued
    directly inside it (self time, not nested scopes) to component [c].
    Exception-safe via [Fun.protect]: an escaping exception still pops the
    frame and attributes the work performed up to the raise. *)

val attribution : unit -> (string * counters) list
(** Accumulated per-component deltas, sorted by component name. *)

(** {2 Task capture — the {!Pool} merge protocol}

    A pool task runs under {!capture}, which gives it fresh counters, an
    empty frame stack and an empty attribution table; the work it performs
    is returned as an opaque {!task_work} instead of mutating the
    submitting domain's state.  The pool then {!absorb}s each task's work
    on the submitting domain *in submission order*, so the merged totals,
    attribution table and any {!measure} around the parallel section are
    identical to the serial execution. *)

type task_work

val capture : (unit -> 'a) -> 'a * task_work
(** Run [f] with isolated counters/attribution on the current domain and
    return what it accrued.  On an escaping exception the partial work is
    dropped (serially nothing past the raise would have run either) and the
    exception is re-raised with its backtrace. *)

val absorb : task_work -> unit
(** Merge captured work into the calling domain: counters add to the
    running totals, the task's attributed components add to the attribution
    table, and the attributed portion counts as nested-scope work of the
    currently open {!with_component} frame (if any) — replicating what a
    serial nested scope would have recorded. *)
