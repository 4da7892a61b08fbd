(** Raft consensus (crash-fault tolerant) over the discrete-event
    simulator: leader election with randomized timeouts, heartbeat-driven
    log replication, and majority commit.  GlassDB's replicated deployment
    (Section 3.3.5) puts one group of [n] replicas behind each shard.

    The implementation covers the Raft safety core — terms, voting with
    up-to-date log checks, log matching and overwrite of conflicting
    suffixes, commit only of current-term entries by counting — but not
    membership change or snapshots, which the paper's experiment does not
    exercise. *)

type command = string

type group

val create :
  ?heartbeat:float ->
  ?election_timeout:float * float ->
  ?rtt:float ->
  n:int ->
  seed:int ->
  apply:(replica_id:int -> index:int -> command -> unit) ->
  unit ->
  group
(** [apply] fires on every replica as entries commit, in log order. *)

val start : group -> unit
(** Spawn replica processes; call inside [Sim.run]. *)

val stop : group -> unit

val size : group -> int
val leader : group -> int option
(** Current leader if any replica believes it is one (highest term wins). *)

val submit : group -> ?timeout:float -> command -> bool
(** Propose a command through the current leader and wait until it commits
    (or the timeout / leadership change fails it).  Retries finding a
    leader once. *)

val crash : group -> int -> unit
(** Replica stops responding; its persistent state (term, vote, log)
    survives. *)

val recover : group -> int -> unit

val is_alive : group -> int -> bool
