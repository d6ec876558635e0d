
(** Half-open chronon intervals [start, stop). *)

type t = { start : Seqnum.chronon; stop : Seqnum.chronon }

val make : start:Seqnum.chronon -> stop:Seqnum.chronon -> t
(** Raises [Invalid_argument] unless [start < stop]. *)

val width : t -> int
val contains : t -> Seqnum.chronon -> bool
val overlaps : t -> t -> bool
val before : t -> Seqnum.chronon -> bool
(** The interval ends at or before the chronon (is fully in the past). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
