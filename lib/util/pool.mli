(** The library runs on one domain.  [global_size] stays only for callers
    that report a pool size. *)

val global_size : unit -> int
(** Always 1. *)
