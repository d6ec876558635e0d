(** Tuples: flat arrays of values, positionally matched to a schema. *)

type t = Value.t array

val make : Value.t list -> t
val arity : t -> int
val get : t -> int -> Value.t

val field : Schema.t -> t -> string -> Value.t
(** Named access via the schema. *)

val project : Schema.t -> string list -> t -> t
(** Restrict a tuple to the given attributes (schema gives positions). *)

val projector : Schema.t -> string list -> t -> t
(** Like {!project} but with the positions resolved once; apply the
    result to many tuples. *)

val concat : t -> t -> t
val remove : Schema.t -> string -> t -> t

val type_check : Schema.t -> t -> bool
(** Arity matches and every non-null value has the declared type. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** Consistent with {!equal}; allocates nothing. *)

val hash_list : Value.t list -> int
(** [hash (make l)], without building the tuple. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by tuple value ({!equal}/{!hash}). *)

val pp : Format.formatter -> t -> unit
val pp_with : Schema.t -> Format.formatter -> t -> unit

(** {2 Tuple sets}  Small helpers implementing set semantics for the
    algebra's union and difference. *)

val dedup : t list -> t list
(** Stable deduplication preserving first occurrence order. *)

val diff : t list -> t list -> t list
(** [diff a b] keeps the tuples of [a] not present in [b] (set
    difference; duplicates within [a] collapse). *)
