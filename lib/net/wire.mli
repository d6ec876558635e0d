(** Wire framing: every frame on a chronicle connection is
    [uvarint length ++ payload] — the length counts payload bytes only.
    Payloads are {!Relational.Codec} fields in a fixed order per opcode
    (see {!Protocol}).

    Truncation at the {e frame} level is not an error but a
    [`Need_more] (the bytes simply have not arrived yet); truncation
    {e inside} a complete frame is a {!Relational.Codec.Decode_error}
    when the payload is decoded. *)

val max_frame : int
(** Default frame-size cap (16 MiB): {!split} rejects any frame whose
    declared length exceeds it, so a corrupt or hostile length prefix
    cannot make the server buffer unboundedly. *)

val frame : string -> string
(** Wrap a payload as one frame: [uvarint length ++ payload]. *)

val split :
  ?max_frame:int -> string -> pos:int -> [ `Frame of string * int | `Need_more ]
(** Extract one frame from a byte stream starting at [pos]:
    [`Frame (payload, next_pos)] when a whole frame is available,
    [`Need_more] when the length prefix or the payload is still
    incomplete.  Raises {!Relational.Codec.Decode_error} on an
    over-long length varint or a declared length that is negative or
    exceeds [max_frame]. *)
