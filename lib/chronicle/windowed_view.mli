open Relational

(** Automatically derived moving-window views.

    §5.1 closes with an open question: "How would such a computation
    [the cyclic buffer of 30 per-day partial sums] be derived
    automatically by the system for a generic periodic view expressed
    over any given set of overlapping time intervals?"

    For periodic views over a {e uniform sliding} calendar whose
    aggregation list consists of incrementally computable (or
    decomposable) functions with a partial-state [merge] — which is
    every function this library admits — the derivation is mechanical,
    and this module performs it: a grouped persistent view definition
    plus a window shape (n buckets of w chronons) compiles to one
    cyclic buffer of aggregate cells per group key ({!Window}, over the
    definition's {!Sca.layout}).  Per appended tuple the cost is O(1)
    aggregate steps after the group localization;
    bucket rollovers cost O(n) once per bucket width; space is
    O(groups × n), independent of the chronicle.

    The result answers the same queries as the equivalent
    [Periodic.create ~calendar:(Calendar.sliding ...)] family's current
    view, at a per-trade cost independent of the window length
    (experiment E10 and the property tests check the agreement). *)

type t

exception Not_derivable of string

val derive : ?bucket_width:int -> ?start:Seqnum.chronon -> buckets:int -> Sca.t -> t
(** [derive ~buckets def] compiles a [Sca.Group_agg] view into per-group
    cyclic buffers covering the last [buckets × bucket_width] chronons
    (bucket width defaults to 1), buckets numbered from [start]
    (default: the group's clock now).  Raises {!Not_derivable} for
    projection views and groupings without aggregates (no aggregate
    state to bucket). *)

val def : t -> Sca.t
val buckets : t -> int
val bucket_width : t -> int

val start : t -> Seqnum.chronon
(** The bucket-numbering origin of every group's window. *)

val layout : t -> Aggregate.layout
(** The cells of every bucket: {!Sca.layout} of the definition. *)

val note_append : t -> sn:Seqnum.t -> batch:Delta.batch -> unit
(** Fold a batch into the windows at the group's current chronon.  A
    windowed view in a database's catalog ({!Db.define_temporal}) is fed
    every committed append. *)

val lookup : t -> Value.t list -> Tuple.t option
(** Current window row for a group key: grouping attributes followed by
    the aggregates over the last [buckets] buckets.  [None] if the key
    has never been seen. *)

val to_list : t -> Tuple.t list
(** All group rows (groups idle for a whole window report empty-window
    aggregates: COUNT 0, SUM/MIN/MAX/AVG null). *)

val group_count : t -> int

(** {2 Snapshots} *)

val dump : t -> (Value.t list * Window.dump) list
(** Per group key (ascending), its window's dump. *)

val load : t -> (Value.t list * Window.dump) list -> unit
(** Restore into a freshly derived view of the same definition and
    shape; raises [Invalid_argument] if it already has groups or a
    window's shape mismatches. *)
