(** Closed-loop benchmark drivers over the simulated clusters.

    Each driver spawns [clients] processes inside one [Sim.run]; every
    client loops over its operation generator until virtual [duration]
    elapses.  Measurements taken before [warmup] are discarded (the paper
    warms up for two minutes of wall time; we use virtual warmup). *)

open Glassdb_util

type result = {
  r_name : string;
  r_throughput : float;          (** committed txns (or ops) per second *)
  r_commits : int;
  r_aborts : int;
  r_abort_rate : float;
  r_latency : Stats.t;           (** client-observed txn/op latency *)
  r_verifications : int;         (** proof checks performed *)
  r_verified_keys : int;
  r_proof_bytes : Stats.t;       (** per verification batch *)
  r_verify_latency : Stats.t;
  r_phase_stats : (string * Stats.t) list;
  r_storage_bytes : int;
  r_blocks : int;
  r_failures : int;              (** failed proof checks; must be 0 *)
}

type setup = {
  sys : System.sysdef;
  params : System.params;
  clients : int;
  duration : float;
  warmup : float;
  seed : int;
}

val run_transactional :
  setup ->
  load:(System.client -> unit) ->
  body:(System.client -> Rng.t -> (unit, Glassdb_util.Error.t) Stdlib.result) ->
  result
(** Generic transactional run: [load] once with client 0, then closed-loop
    [body] per client. *)

val run_ycsb : setup -> Ycsb.config -> result

val run_verified :
  setup -> Ycsb.config -> pick:(Rng.t -> Ycsb.verified_op) -> result
(** Workload-X/Y style run: verified single-key operations, with deferred
    verifications flushed as they come due; throughput counts operations. *)

val run_timeline :
  setup ->
  load:(System.client -> unit) ->
  body:(System.client -> Rng.t -> (unit, Glassdb_util.Error.t) Stdlib.result) ->
  events:(float * (System.admin -> unit)) list ->
  (float * int) list
(** Fig-11-style run: returns per-second committed-txn counts while the
    scripted events (crash/recover) fire at their times. *)
