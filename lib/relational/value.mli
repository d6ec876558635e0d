(** Typed atomic values: the domain of chronicle and relation attributes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = TBool | TInt | TFloat | TStr

val ty_of : t -> ty option
(** [ty_of v] is the type of [v], or [None] for [Null]. *)

val ty_name : ty -> string

val compare : t -> t -> int
(** Total order used by ordered indexes and set operations.  Numeric
    values compare numerically across [Int]/[Float]; [Null] sorts first;
    otherwise constructors are ordered [Null < Bool < numeric < Str]. *)

val equal : t -> t -> bool
val hash : t -> int

val is_null : t -> bool

(** {2 Arithmetic}  Numeric helpers used by aggregates; raise
    [Invalid_argument] on non-numeric input. *)

val to_float : t -> float
val to_int : t -> int
val add : t -> t -> t
(** Numeric addition; [Int + Int] stays [Int], otherwise [Float]. *)

val sub : t -> t -> t
(** Numeric subtraction, mirroring {!add}; the aggregate-inversion
    primitive of weighted (retraction) deltas. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {2 List keys}  Composite keys (e.g. group keys, index keys). *)

val compare_list : t list -> t list -> int
val equal_list : t list -> t list -> bool
val hash_list : t list -> int
val pp_list : Format.formatter -> t list -> unit
