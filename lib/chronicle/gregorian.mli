
(** Civil-calendar arithmetic for building realistic billing calendars
    (§5.1 follows [SS92, CSS94] in wanting calendars like "every
    month", whose intervals are {e not} uniform: months have 28–31
    days).

    Chronons are interpreted as day numbers; day 0 is 1970-01-01
    (proleptic Gregorian, using Howard Hinnant's civil-date
    algorithms). *)

type date = { year : int; month : int; day : int }
(** [month] 1–12, [day] 1–31. *)

val is_leap_year : int -> bool
val days_in_month : year:int -> month:int -> int

val to_days : date -> Seqnum.chronon
(** Days since 1970-01-01; raises [Invalid_argument] on invalid dates. *)

val of_days : Seqnum.chronon -> date
val day_of_week : Seqnum.chronon -> int
(** 0 = Sunday … 6 = Saturday. *)

val month_start : year:int -> month:int -> Seqnum.chronon

val months : from_year:int -> from_month:int -> count:int -> Calendar.t
(** A finite calendar of [count] consecutive calendar months — real
    month boundaries, 28/29/30/31-day widths. *)

val billing_months :
  from_year:int -> from_month:int -> count:int -> anchor_day:int -> Calendar.t
(** Billing cycles anchored on a day of the month (e.g. statements cut
    on the 15th): interval i runs from the anchor in month i to the
    anchor in month i+1.  Anchors beyond a month's length clamp to its
    last day.  Raises [Invalid_argument] unless 1 ≤ anchor_day ≤ 31. *)

val pp_date : Format.formatter -> date -> unit
