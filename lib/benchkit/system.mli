(** Uniform harness-facing interface over GlassDB and the baselines.

    Every system is exposed as an {!admin} (cluster lifecycle + aggregate
    counters) producing per-client {!client} records (transactional and
    verified operations).  The benchmark drivers are written once against
    these records; the per-system adapters live in {!Adapters}. *)

open Glassdb_util
module Kv = Txnkit.Kv

type params = {
  shards : int;
  workers : int;
  persist_interval : float; (** persister / bAMT / sequencer period *)
  verify_delay : float;     (** client deferred-verification window *)
  pattern_bits : int;
  batching : bool;          (** GlassDB ablation: block batching *)
  sync_persist : bool;      (** GlassDB ablation: no deferred verification *)
  rpc_timeout : float;      (** per-RPC attempt deadline *)
}
(** Retries, backoff and the network take {!Glassdb.Config.default}'s
    values, for every transactional system alike. *)

val default_params : params

type verification = {
  ok : bool;
  proof_bytes : int;
  latency : float;
  keys : int;
}

type txn_ctx = {
  tget : Kv.key -> Kv.value option;
  tput : Kv.key -> Kv.value -> unit;
}

type client = {
  c_execute : (txn_ctx -> unit) -> (unit, Error.t) result;
  c_execute_verified : (txn_ctx -> unit) -> (unit, Error.t) result;
      (** Like [c_execute], but the transaction's writes are scheduled for
          (deferred) verification, per the system's own mechanism. *)
  c_verified_put : Kv.key -> Kv.value -> (unit, Error.t) result;
  c_verified_get_latest : Kv.key -> (verification, Error.t) result;
  c_verified_get_historical : Kv.key -> (verification, Error.t) result;
  c_flush : force:bool -> verification list;
  c_history : Kv.key -> n:int -> (int, Error.t) result;
      (** versions actually fetched; [Ok 0] where history is unsupported *)
  c_failures : unit -> int;           (** failed proof checks *)
}

type admin = {
  a_name : string;
  a_start : unit -> unit;
  a_stop : unit -> unit;
  a_client : int -> client;
  a_storage_bytes : unit -> int;
  a_commits : unit -> int;
  a_aborts : unit -> int;
  a_blocks : unit -> int;
  a_phase_stats : unit -> (string * Stats.t) list;
  a_reset_stats : unit -> unit;
  a_crash : int -> unit;
  a_recover : int -> unit;
}

type sysdef = { name : string; make : params -> admin }
