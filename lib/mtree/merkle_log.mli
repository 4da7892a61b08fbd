(** Append-only Merkle history tree (the "transparency log" of Section 2.3),
    following RFC 6962 / Crosby–Wallach.

    Leaves are data strings; the tree of size [n] has root [MTH(D[0:n])].
    Supports the three proof kinds of the paper: inclusion proofs (audit
    paths), append-only proofs (consistency proofs between two sizes), and —
    by exhaustive scan, deliberately, as in QLDB/LedgerDB — current-value
    checks, which cost O(N) and are implemented by the baselines on top of
    this module. *)

open Glassdb_util

type t

val create : unit -> t

val size : t -> int

val append : t -> string -> int
(** Add a leaf; returns its index. *)

val root : t -> Hash.t
(** Root over the current size ([Hash.empty] when empty). *)

val root_at : t -> int -> Hash.t
(** Root as it was when the log had the given size. *)

type proof = Hash.t list

val proof_size_bytes : proof -> int

val encode_proof : Buffer.t -> proof -> unit
val decode_proof : Codec.reader -> proof

val inclusion_proof : t -> index:int -> size:int -> proof
(** Audit path for leaf [index] in the tree of [size] leaves.
    Requires [0 <= index < size <= size t]. *)

val verify_inclusion :
  root:Hash.t -> size:int -> index:int -> leaf:string -> proof -> bool
(** Recomputes the root from the raw leaf data and the path. *)

val consistency_proof : t -> old_size:int -> new_size:int -> proof
(** Append-only proof between two historical sizes.
    Requires [0 <= old_size <= new_size <= size t]. *)

val verify_consistency :
  old_root:Hash.t -> old_size:int ->
  new_root:Hash.t -> new_size:int -> proof -> bool
