(** Extended YCSB (Section 4.1).

    The vanilla workloads batch 10 put/get operations per transaction with
    read-heavy (8R/2W), balanced (5R/5W) and write-heavy (2R/8W) mixes over
    a (scrambled-)Zipfian key popularity.  The verification extension adds
    VerifiedPut / VerifiedGetLatest / VerifiedGetAt single-key operations
    with a deferred-verification delay: Workload-X is 50/50
    VerifiedPut/VerifiedGetLatest; Workload-Y is 20/40/40 with
    VerifiedGetAt. *)

open Glassdb_util
module Kv = Txnkit.Kv

type mix = Read_heavy | Balanced | Write_heavy

val mix_name : mix -> string

type config = {
  record_count : int;
  ops_per_txn : int;
  value_size : int;
  theta : float; (** 0. = uniform *)
  mix : mix;
}

val default_config : config

val key_of : int -> Kv.key

val load : System.client -> config -> unit
(** Populate all records through ordinary transactions (100 keys each). *)

type op = Op_get of Kv.key | Op_put of Kv.key * Kv.value

val txn_ops : Rng.t -> config -> op list
(** One transaction's operations according to the mix. *)

val run_txn : System.client -> Rng.t -> config -> (unit, Glassdb_util.Error.t) result
(** Generate and execute one transaction. *)

val run_txn_verified : System.client -> Rng.t -> config -> (unit, Glassdb_util.Error.t) result
(** Same, with the writes scheduled for deferred verification. *)

type verified_op = V_put | V_get_latest | V_get_at

val workload_x : Rng.t -> verified_op
val workload_y : Rng.t -> verified_op

val run_verified_op :
  System.client -> Rng.t -> config -> verified_op ->
  (System.verification option, Glassdb_util.Error.t) result
(** Execute one verified operation; puts return [None] (their verification
    arrives later via [c_flush]). *)
