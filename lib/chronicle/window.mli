open Relational

(** The cyclic-buffer moving-window optimization of §5.1.

    "Keep the total number of shares sold for each of the last 30 days
    separately, and derive the view as the sum of these 30 numbers.
    Moving from one periodic view to the next involves shifting a
    cyclic buffer of these 30 numbers" — and, with an expiration date,
    the buffer slot of an expired interval is reused.

    The window keeps [buckets] blocks of aggregate cells
    ({!Aggregate.cells}), one per bucket of [bucket_width] chronons,
    all over one layout: every call of a group shares the bucket
    ring.  Per added tuple the cost is one step of the open bucket's
    cells, and per bucket rollover one O(buckets) recombination with
    {!Aggregate.merge_cells} (amortized O(1) per chronon).  Reading
    {!total} is O(1): the merge of all closed buckets is cached and
    combined with the open bucket. *)

type t

val create :
  layout:Aggregate.layout ->
  buckets:int ->
  bucket_width:int ->
  start:Seqnum.chronon ->
  t

val buckets : t -> int
val bucket_width : t -> int

val add : t -> Seqnum.chronon -> Tuple.t -> unit
(** Step the open bucket with a tuple observed at the given chronon
    (the layout reads its aggregate arguments); bumps [Agg_step] once
    per call.  Chronons must be non-decreasing; raises
    [Invalid_argument] otherwise.  Rolls the cyclic buffer if the
    chronon belongs to a later bucket, retiring buckets that fall out
    of the window (their slots are reused). *)

val advance : t -> Seqnum.chronon -> unit
(** Roll the window to the given chronon without adding a value. *)

val now : t -> Seqnum.chronon
val total : t -> Value.t list
(** Every call's aggregate over the window's current [buckets]
    buckets. *)

val bucket_totals : t -> Value.t list list
(** Per-bucket current values, oldest first, all [Null] for a bucket
    before the start (for inspection/tests). *)

val rolls : t -> int
(** Number of bucket rollovers so far (cost accounting for E5). *)

(** {2 Snapshots} *)

type dump = {
  d_start : Seqnum.chronon;  (** the bucket-numbering origin *)
  d_head : int;
  d_clock : Seqnum.chronon;
  d_cells : Aggregate.cells list;  (** copies, in slot order *)
}

val dump : t -> dump
val load : t -> dump -> unit
(** Restore into a freshly created window of the same shape; raises
    [Invalid_argument] on a bucket-count mismatch or cells of another
    layout. *)
