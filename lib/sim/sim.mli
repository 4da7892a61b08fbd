(** Deterministic discrete-event simulator with coroutine processes.

    This is the substrate replacing the paper's 32-machine testbed.  A
    simulation is a set of cooperating processes sharing one virtual clock;
    processes suspend on {!sleep} and on {!Ivar} reads, and the scheduler
    advances virtual time to the next pending event.  Built on OCaml 5
    effect handlers, so process code reads as plain sequential code.

    Determinism: event order is a total order on (time, spawn sequence), and
    all randomness comes from explicit {!Glassdb_util.Rng} values, so a run
    is a pure function of its inputs. *)

exception Stopped
(** Raised inside a process when the simulation was stopped by {!stop}. *)

val run : ?until:float -> (unit -> unit) -> unit
(** [run main] executes [main] as the root process and keeps dispatching
    events until none remain (or virtual time exceeds [until], if given).
    Exceptions escaping any process abort the run and are re-raised.
    Must not be called re-entrantly from inside a simulation. *)

val now : unit -> float
(** Current virtual time, in seconds.  Only valid inside {!run}. *)

val in_simulation : unit -> bool
(** [true] between entry to and exit from {!run} — i.e. when {!now},
    {!sleep} and friends may be called.  Lets optional instrumentation
    (tracing, samplers) timestamp with virtual time when available and
    fall back gracefully outside a simulation. *)

val sleep : float -> unit
(** Suspend the calling process for the given virtual duration (>= 0). *)

val spawn : (unit -> unit) -> unit
(** Start a concurrent process at the current virtual time. *)

val stop : unit -> unit
(** Discard all pending events: the simulation finishes once currently
    runnable code yields.  Used to end open-loop experiments. *)

module Ivar : sig
  (** Write-once synchronization cells. *)

  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] when already filled. *)

  val try_fill : 'a t -> 'a -> bool
  (** [false] when already filled. *)

  val read : 'a t -> 'a
  (** Suspend until filled; immediate if already filled. *)

  val read_timeout : 'a t -> float -> 'a option
  (** [read_timeout iv d] waits at most [d] virtual seconds; [None] on
      timeout. *)
end

module Resource : sig
  (** Counted resource with a FIFO wait queue; models a node's worker-thread
      pool or a disk with bounded concurrency. *)

  type t

  val create : int -> t
  (** Capacity must be positive. *)

  val use : t -> (unit -> 'a) -> 'a
  (** Acquire a slot (waiting in FIFO order when none is free), run, and
      release it (also on exception). *)

  val in_use : t -> int
  val queue_length : t -> int
end
