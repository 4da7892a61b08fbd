(** Minimal binary serialization used for proofs, WAL records, RPC payload
    sizing and signed transactions.

    Encoders append to a [Buffer.t]; decoders consume from a string with an
    explicit mutable cursor.  Decoding raises {!Malformed} on truncated or
    corrupt input — callers treating proofs from an untrusted server must
    catch it and treat it as verification failure. *)

exception Malformed of string

type reader
(** Cursor over an input string. *)

val reader : string -> reader
val at_end : reader -> bool

val write_varint : Buffer.t -> int -> unit
(** Unsigned LEB128; accepts only non-negative integers. *)

val read_varint : reader -> int

val write_string : Buffer.t -> string -> unit
(** Length-prefixed string. *)

val read_string : reader -> string

val skip_prefix : reader -> string -> bool
(** Consume [s] if the input continues with it; [false] (and nothing
    consumed) otherwise. *)

val read_byte : reader -> int

val write_bool : Buffer.t -> bool -> unit
val read_bool : reader -> bool

val write_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val read_list : reader -> (reader -> 'a) -> 'a list

val write_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
val read_option : reader -> (reader -> 'a) -> 'a option

val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string
(** Run an encoder into a fresh buffer. *)

val of_string : (reader -> 'a) -> string -> 'a
(** Run a decoder over a whole string; raises {!Malformed} if bytes remain. *)

type 'a codec = {
  encode : Buffer.t -> 'a -> unit;
  decode : reader -> 'a;
  size_bytes : 'a -> int;
}
(** A first-class serializer: the encode/decode pair plus the accounting
    size used when charging simulated network transfer.  [size_bytes] is a
    modelled cost, not necessarily [String.length (to_string encode x)] —
    some proof codecs deliberately charge a framing overhead per element
    rather than the exact varint framing. *)

val codec :
  ?size_bytes:('a -> int) ->
  encode:(Buffer.t -> 'a -> unit) ->
  decode:(reader -> 'a) ->
  unit ->
  'a codec
(** Build a codec.  When [size_bytes] is omitted it defaults to the exact
    encoded length (one throwaway encoding per call — fine for accounting,
    avoid on hot paths). *)

val encode_to_string : 'a codec -> 'a -> string
(** [to_string c.encode]. *)

val decode_of_string : 'a codec -> string -> 'a
(** [of_string c.decode]; raises {!Malformed} on trailing bytes. *)
