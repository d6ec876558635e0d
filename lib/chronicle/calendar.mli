
(** Calendars: sets of time intervals over which periodic persistent
    views are instantiated (§5.1, in the spirit of [SS92, CSS94]).

    A calendar is either a finite explicit list of intervals or an
    infinite periodic generator [interval i = [start + i·stride,
    start + i·stride + width)].  With [width > stride] consecutive
    intervals overlap — the moving-window case; with [width = stride]
    they tile time — the billing-period case. *)

type t

val finite : Interval.t list -> t
(** Raises [Invalid_argument] on an empty list. *)

val periodic : start:Seqnum.chronon -> width:int -> stride:int -> t
(** Raises [Invalid_argument] unless [width > 0 && stride > 0]. *)

val tiling : start:Seqnum.chronon -> width:int -> t
(** Non-overlapping periods: [periodic ~start ~width ~stride:width]. *)

val sliding : start:Seqnum.chronon -> width:int -> t
(** One interval per chronon, each [width] long (stride 1): "for every
    day, the total over the 30 preceding days". *)

val interval : t -> int -> Interval.t option
(** The i-th interval; [None] past the end of a finite calendar or for
    negative i. *)

val is_finite : t -> bool
val interval_count : t -> int option
(** [None] for periodic (infinite) calendars. *)

val covering : t -> Seqnum.chronon -> int list
(** Indices of the intervals containing the chronon, ascending.  O(k)
    in the number k of covering intervals for periodic calendars. *)

val first_covering : t -> Seqnum.chronon -> int option

val max_concurrent : t -> int option
(** Upper bound on how many intervals can be active at one instant
    ([None] if a finite calendar is empty of overlaps... always [Some]
    here: ⌈width/stride⌉ for periodic, computed exactly for finite). *)

val pp : Format.formatter -> t -> unit

(** {2 Reification} (snapshots and tooling) *)

type spec =
  | Finite_spec of Interval.t list
  | Periodic_spec of { start : Seqnum.chronon; width : int; stride : int }

val spec : t -> spec
val of_spec : spec -> t
