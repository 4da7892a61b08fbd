(** Digest values and domain-separated hashing conventions shared by every
    Merkle structure in the repository.

    Domain separation prevents cross-structure collisions: a leaf hash can
    never equal an interior-node hash, following RFC 6962. *)

type t = string
(** A 32-byte SHA-256 digest. *)

val size : int
(** Digest size in bytes (32). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val empty : t
(** Digest of the empty structure: [H("")]. *)

val of_string : string -> t
(** Hash arbitrary data (no domain tag). *)

val leaf : string -> t
(** RFC 6962-style leaf hash: [H(0x00 || data)]. *)

val interior : t -> t -> t
(** RFC 6962-style interior hash: [H(0x01 || left || right)]. *)

val combine : t list -> t
(** Hash of the concatenation of digests, tagged [0x02]; used for n-ary
    nodes (POS-tree index nodes, block headers). *)

val combine_feed : ((string -> unit) -> unit) -> t
(** [combine_feed fill] is {!combine} without building the list: [fill]
    pushes each digest (or arbitrary byte fragment) in order through the
    provided callback, and the result equals [combine] over the same
    fragments.  The feeder runs against a reused module-level context, so
    it may call the primitive ops ({!of_string}, {!leaf}, {!kv}, ...) —
    e.g. to memoize an item hash mid-stream — but must not call
    {!combine} or {!combine_feed}.  Every POS-tree chunk hash, built or
    verified, goes through this function. *)

val kv : string -> string -> t
(** Hash of one key/value binding, tagged [0x03]. *)

val short : t -> string
(** 8-hex-char prefix for logging. *)

val pp : Format.formatter -> t -> unit
