open Relational

(** Periodic persistent views (§5.1).

    Given a view definition V in the summarized chronicle algebra and a
    calendar D, [V⟨D⟩] denotes one view per calendar interval, each
    defined like V but with a selection restricting chronicle tuples to
    the interval (under the group's sequence-number → chronon mapping).

    The family is maintained lazily, exactly as §5.1 prescribes for
    non-overlapping intervals — "start maintaining a view as soon as
    its time interval starts, stop as soon as its interval ends" — and
    this generalizes to overlapping calendars by keeping every covering
    interval's view open.  Expiration dates let an infinite calendar
    run in bounded space: a finalized view older than [expire_after]
    chronons is discarded and its space reclaimed. *)

type t

val create :
  ?index:Index.kind ->
  ?expire_after:int ->
  def:Sca.t ->
  calendar:Calendar.t ->
  unit ->
  t
(** [expire_after] (chronons past the interval's end; default: keep
    forever) bounds how long finalized interval views are kept. *)

val def : t -> Sca.t
val calendar : t -> Calendar.t

val note_append : t -> Tuple.t list -> unit
(** Advance the family to the group's current chronon and fold one
    append's Δ of the body (the tuples the append adds to it) into
    every active interval view.  A family in a database's catalog
    ({!Db.define_temporal}) is fed every committed append, its Δ
    computed in the append's write step. *)

val get : t -> int -> View.t option
(** View of the i-th calendar interval, whether active or finalized;
    [None] if never opened or already expired. *)

val current : t -> (int * View.t) option
(** The active view whose interval covers the group clock now (the
    first, for overlapping calendars). *)

val active : t -> (int * View.t) list
(** Open interval views, ascending interval index. *)

val finalized : t -> (int * View.t) list

val live_views : t -> int
(** Active + finalized (bounded when [expire_after] is set — the §5.1
    claim that expiration makes infinitely many periodic views
    implementable). *)

val opened_total : t -> int
val expired_total : t -> int

val expire_after : t -> int option
val index_kind : t -> Relational.Index.kind option

(** {2 Snapshots} *)

type slot_dump = {
  sd_index : int;
  sd_interval : Interval.t;
  sd_active : bool;
  sd_contents : View.dump;
}

type dump = {
  d_slots : slot_dump list;
  d_opened : int;
  d_expired : int;
}

val dump : t -> dump
val load : t -> dump -> unit
(** Restore interval views into a freshly created family with the same
    definition and calendar; raises [Invalid_argument] if the family
    already has state. *)
