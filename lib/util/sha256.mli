(** Pure-OCaml SHA-256 (FIPS 180-4).

    This module is the only cryptographic hash used in the repository: every
    Merkle structure, signature and digest is built on it.  The implementation
    is incremental: feed data with {!feed_string} / {!feed_bytes} and finish
    with {!finalize}, or use the one-shot {!digest_string}. *)

type t
(** Mutable hashing context.  A context is single-use per digest: after
    {!finalize}/{!digest_into} it refuses further input until {!reset}
    returns it to the fresh state.  One context can therefore be reused
    for any number of digests — the batched-hash hot paths reuse two
    (see {!Hash}) and pay zero allocation per digest. *)

val init : unit -> t
(** Fresh context. *)

val reset : t -> unit
(** Return the context to the fresh state, ready for a new message.
    Equivalent to a new {!init} without the allocation. *)

val feed_bytes : t -> ?off:int -> ?len:int -> bytes -> unit
(** Absorb a byte range.  Raises [Invalid_argument] on a bad range or on a
    finalized context. *)

val feed_string : t -> string -> unit
(** Absorb a whole string.  Raises [Invalid_argument] on a finalized
    context. *)

val digest_into : t -> bytes -> int -> unit
(** Write the 32-byte raw digest at the given offset of the caller's
    buffer and mark the context finalized.  Raises [Invalid_argument] when
    the 32 bytes do not fit, or when the context is already finalized. *)

val finalize : t -> string
(** Produce the 32-byte raw digest.  The context stays finalized until
    {!reset}; feeding or finalizing it again raises [Invalid_argument]. *)

val digest_string : string -> string
(** One-shot digest of a string; returns 32 raw bytes. *)

val hmac : key:string -> string -> string
(** HMAC-SHA256 (RFC 2104); used for client "signatures". *)
