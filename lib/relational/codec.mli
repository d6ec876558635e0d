(** The binary codec: the one encoding for everything the engine
    writes down — journal records, checkpoints, [--save] session
    snapshots — and for every frame on the wire.

    Fields are primitive values in a fixed order chosen by each
    serializer: unsigned varints (LEB128, at most 9 bytes — exactly the
    63 bits of an OCaml [int]), zigzag-folded signed varints,
    length-prefixed byte strings, IEEE-754 doubles as 8 raw big-endian
    bytes, and tagged {!Value.t} atoms.  Lists are a uvarint count then
    the elements; options a [0]/[1] byte then the payload.  The owning
    module of each type pairs a [put_x] with a [get_x] over these
    primitives.

    Decoding is total: every malformed input — truncated field, length
    running past the payload, unknown tag, over-long varint, trailing
    garbage — raises {!Decode_error} with a diagnosis, never a bare
    [Failure] or an out-of-bounds crash. *)

exception Decode_error of string

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Decode_error} with a formatted reason — for serializers
    that meet an unknown tag of their own. *)

(** {2 Encoding} *)

val put_uvarint : Buffer.t -> int -> unit
(** LEB128.  The int's 63 bits are treated as unsigned, so every OCaml
    [int] (including negatives, as their two's-complement bit pattern)
    round-trips in at most 9 bytes. *)

val put_int : Buffer.t -> int -> unit
(** Zigzag-folded signed varint: small magnitudes of either sign stay
    short. *)

val put_string : Buffer.t -> string -> unit
(** [uvarint length ++ bytes]. *)

val put_bool : Buffer.t -> bool -> unit
val put_float : Buffer.t -> float -> unit

val put_value : Buffer.t -> Value.t -> unit
(** One tag byte, then the tag-specific payload: 0 = Null, 1 = Bool
    (one byte), 2 = Int (zigzag varint), 3 = Float (8 bytes, IEEE-754
    big-endian), 4 = Str (length-prefixed). *)

val put_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val put_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

val encode : (Buffer.t -> 'a -> unit) -> 'a -> string
(** Run one encoder into a fresh buffer. *)

(** {2 Decoding} *)

type reader
(** A cursor over one payload. *)

val reader : string -> reader
val remaining : reader -> int

val byte : reader -> int
val uvarint : reader -> int
val int_ : reader -> int
val string_ : reader -> string
val bool_ : reader -> bool
val float_ : reader -> float
val value : reader -> Value.t

val list : (reader -> 'a) -> reader -> 'a list
(** A count above the bytes left is a {!Decode_error}, so a corrupt
    count never allocates. *)

val option : (reader -> 'a) -> reader -> 'a option

val length : reader -> max:int -> string -> int
(** A uvarint used as a count or size: raises {!Decode_error} naming
    the field if it is negative (64th-bit games) or exceeds [max]. *)

val expect_end : reader -> unit
(** Raises {!Decode_error} unless the payload was consumed exactly —
    trailing garbage is malformed, not ignorable. *)

val decode : (reader -> 'a) -> string -> ('a, string) result
(** Decode a whole payload; [Error reason] on a {!Decode_error}, the
    reason ending with the byte offset inside the payload where
    decoding stopped.  Other exceptions pass through. *)

(** {2 File magic} *)

val magic : tag:string -> version:int -> string
(** [magic ~tag ~version] = [tag ^ string_of_int version ^ "\n"] — how
    each file kind (journal segment, checkpoint, session snapshot)
    announces itself and its format version. *)

val check_magic : tag:string -> version:int -> string -> (int, string) result
(** [Ok n] when the data starts with the magic ([n] = its length);
    otherwise [Error] naming the version found — another version of
    the same tag, or version 1 for S-expression text — or ["bad
    magic"]. *)
