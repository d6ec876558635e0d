(** Mutable in-memory relations with optional primary key and secondary
    indexes.

    Rows live in a growable array and are addressed by stable integer row
    ids; deletion leaves a tombstone.  Any mutation bumps the relation's
    version counter, which the chronicle layer's proactive-update rule
    (§2.3 of the paper) keys on. *)

type t

exception Key_violation of string
(** Raised on insert/update that would duplicate the primary key. *)

val create : name:string -> schema:Schema.t -> ?key:string list -> unit -> t
(** [key], when given, is enforced unique via an automatic hash index. *)

val name : t -> string
val schema : t -> Schema.t
val key : t -> string list option
val cardinality : t -> int
(** Number of live rows. *)

val version : t -> int
(** Monotone counter, bumped by every mutation. *)

val insert : t -> Tuple.t -> int
(** Returns the new row id.  Raises [Invalid_argument] if the tuple does
    not type-check against the schema, {!Key_violation} on duplicate
    key. *)

val insert_all : t -> Tuple.t list -> unit

val get : t -> int -> Tuple.t option
(** [None] if the row id was deleted. *)

val delete : t -> int -> Tuple.t option
(** Tombstone the row; returns the deleted tuple. *)

val update : t -> int -> Tuple.t -> unit
(** Replace the tuple at a live row id. *)

val delete_where : t -> Predicate.t -> int
(** Returns the number of rows deleted. *)

val iter : (int -> Tuple.t -> unit) -> t -> unit
(** Live rows only; bumps [Stats.Tuple_read] per row. *)

val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> Tuple.t list

val create_index : t -> Index.kind -> string list -> unit
(** Build (and thereafter maintain) a secondary index on the given
    attributes; idempotent per attribute list. *)

val has_index : t -> string list -> bool

val indexed_attrs : t -> string list list
(** Attribute lists of all maintained indexes (primary-key index
    included), in probe-preference order.  {!Plan.compile} uses this to
    push selections down into index scans. *)

val lookup : t -> attrs:string list -> Value.t list -> Tuple.t list
(** Rows whose [attrs] equal the key, in ascending row-id (scan) order.
    Uses a matching index when one exists, otherwise falls back to a
    full scan (each scanned row bumps [Stats.Tuple_read], making the
    difference measurable). *)

val lookup_rows : t -> attrs:string list -> Value.t list -> int list

val find_by_key : t -> Value.t list -> Tuple.t option
(** Primary-key point lookup; raises [Invalid_argument] if the relation
    has no key. *)

val pp : Format.formatter -> t -> unit
