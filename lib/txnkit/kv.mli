(** Shared transaction vocabulary for every system in the repository:
    keys, versioned values, read/write sets, transaction identifiers and
    client signatures. *)

open Glassdb_util

type key = string
type value = string

type version = int
(** The block (GlassDB) or journal/log sequence number (baselines) in which
    a value was, or will be, persisted. *)

type txn_id = string

val txn_id : client:int -> seq:int -> txn_id
(** Deterministic transaction id from client id and per-client sequence. *)

type rw_set = {
  reads : (key * version) list;
      (** keys read, with the version observed; [-1] for an absent key *)
  writes : (key * value) list;
}

val shard_of_key : shards:int -> key -> int
(** Hash partitioning (Section 3.3.2): stable mapping of keys to shards. *)

val encode_rw_set : Buffer.t -> rw_set -> unit
(** Raises [Invalid_argument] on a read version below [-1]. *)

val decode_rw_set : Codec.reader -> rw_set

val encode_entry : txn_id -> (key * value) list -> string
(** The baselines' journal entry: a committed transaction's id and its
    writes. *)

val entry_writes : string -> (key * value) list option
(** The writes of an encoded entry; [None] when the bytes do not decode. *)

type signed_txn = {
  tid : txn_id;
  client : int;
  rw : rw_set;
  signature : string; (** keyed hash over (tid, rw) under the client's key *)
}

val sign : sk:string -> tid:txn_id -> client:int -> rw_set -> signed_txn
val verify_signature : pk:string -> signed_txn -> bool
(** Signatures are HMAC-SHA256; verification uses the same key material
    (see DESIGN.md on the symmetric-signature substitution). *)

val encode_signed_txn : Buffer.t -> signed_txn -> unit
val decode_signed_txn : Codec.reader -> signed_txn
val signed_txn_bytes : signed_txn -> int
