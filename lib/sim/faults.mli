(** Deterministic fault injection for the simulated cluster.

    A [Faults.t] is a seeded schedule of node crashes/restarts and link
    partitions plus stochastic per-message drop/delay, consulted by the
    network layer ({!Net}) and the cluster RPC path.  Everything derives
    from one {!Glassdb_util.Rng} seed, so the same seed over the same
    workload yields byte-identical fault decisions and event traces —
    the repeat-run determinism the benchmarks assert.

    Seed protocol: experiments pass an explicit seed (recorded in their
    output); exploratory runs may use {!random_seed}, the tree's single
    sanctioned ambient-randomness site, and must report the seed chosen. *)

type action =
  | Crash of int      (** take the shard down (volatile state lost) *)
  | Restart of int    (** bring the shard back (triggers WAL replay) *)
  | Partition of int  (** drop every message to/from the shard *)
  | Heal of int       (** end the shard's partition *)

type t

val none : unit -> t
(** No faults ever: nothing scheduled, zero drop/delay probability.  The
    default for every cluster; consults no randomness. *)

val create : ?drop:float -> ?delay:float * float -> seed:int -> unit -> t
(** [drop] is the per-message loss probability (default 0); [delay] is
    [(probability, max_extra_seconds)] for per-message extra latency
    (default [(0., 0.)]); [seed] feeds the private RNG. *)

val seed : t -> int

val schedule : t -> at:float -> action -> unit
(** Arm [action] at virtual time [at].  Call before {!run}. *)

val run : t -> crash:(int -> unit) -> restart:(int -> unit) -> unit
(** Spawn the schedule executor (must run inside [Sim.run]): actions fire
    in time order; [Crash]/[Restart] invoke the callbacks, [Partition]/
    [Heal] toggle the internal link state. *)

val partitioned : t -> shard:int -> bool

val deliver : t -> shard:int -> bool
(** Decide one message's fate on the shard's link: [false] when the link
    is partitioned or the drop draw fires.  Draws the RNG (at most once)
    and records dropped messages in the trace. *)

val extra_delay : t -> shard:int -> float
(** Extra one-way latency for one message (0 unless the delay draw
    fires); draws the RNG only when a delay distribution is configured. *)

val trace : t -> (float * string) list
(** Injected events oldest-first: ["crash 0"], ["restart 0"],
    ["partition 2"], ["heal 2"], ["drop 1"], ["delay 1"].  Deterministic
    for a given seed and workload; bounded: entries beyond the retention
    cap are discarded, while the counters below stay exact. *)

val crashes : t -> int
val drops : t -> int
val delays : t -> int

val random_seed : unit -> int
(** The single sanctioned ambient-randomness site (glassdb-lint rule
    D002).  Only for picking a fresh seed interactively — the caller must
    surface the value so the run can be replayed; every other module
    threads an explicit seed. *)
