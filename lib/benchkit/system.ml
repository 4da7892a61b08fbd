open Glassdb_util
module Kv = Txnkit.Kv

type params = {
  shards : int;
  workers : int;
  persist_interval : float;
  verify_delay : float;
  pattern_bits : int;
  batching : bool;
  sync_persist : bool;
  rpc_timeout : float;
}

let default_params =
  { shards = 4;
    workers = 8;
    persist_interval = 0.05;
    verify_delay = 0.1;
    pattern_bits = 5;
    batching = true;
    sync_persist = false;
    rpc_timeout = 0.5 }

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
  c_verified_put : Kv.key -> Kv.value -> (unit, Error.t) result;
  c_verified_get_latest : Kv.key -> (verification, Error.t) result;
  c_verified_get_historical : Kv.key -> (verification, Error.t) result;
  c_flush : force:bool -> verification list;
  c_history : Kv.key -> n:int -> (int, Error.t) result;
  c_failures : unit -> int;
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
