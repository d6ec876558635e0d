open Relational

(** Chronicles: append-only sequences of transaction records.

    A chronicle is represented as a relation with the extra sequencing
    attribute {!Seqnum.attr} (always the first column).  The only
    permissible update is appending tuples whose sequence number exceeds
    every sequence number in the chronicle's {e group} (§2.1, §4).

    Chronicles can be very large and "the entire chronicle may not be
    stored in the system": each chronicle has a {e retention policy},
    and incremental view maintenance never reads retained history —
    every read of a stored chronicle tuple bumps
    [Stats.Chronicle_scan], so tests and benchmarks can assert the
    zero-access property. *)

type retention =
  | Discard  (** store nothing beyond the live append (the default) *)
  | Window of int  (** keep the last [n] tuples, for detail queries *)
  | Full  (** keep everything (recomputation baselines only) *)

type t

exception Not_retained of string
(** Raised when an operation needs history the retention policy threw
    away. *)

exception Restore_conflict of { chronicle : string; appended : int }
(** Raised by {!restore} when the chronicle already has appends — a
    snapshot can only be loaded into a fresh chronicle. *)

val create :
  group:Group.t -> ?retention:retention -> name:string -> Schema.t -> t
(** [create ~group ~name user_schema].  The user schema must not
    contain {!Seqnum.attr}; the chronicle's full schema is
    [sn :: user_schema]. *)

val name : t -> string
val group : t -> Group.t
val user_schema : t -> Schema.t
val schema : t -> Schema.t
(** Full schema including the sequencing attribute. *)

val retention : t -> retention

val append : t -> Tuple.t list -> Seqnum.t
(** Append a batch of user tuples (without [sn]); a fresh sequence
    number is drawn from the group and assigned to the whole batch.
    Raises [Invalid_argument] if a tuple does not match the user
    schema. *)

val append_sparse : t -> Seqnum.t -> Tuple.t list -> unit
(** Like {!append} with a caller-chosen sequence number (sequence
    numbers need not be dense); raises [Group.Stale_sequence_number]
    if it does not exceed the group watermark. *)

val append_multi : Group.t -> (t * Tuple.t list) list -> Seqnum.t
(** Simultaneous insertion into several chronicles of one group under a
    single fresh sequence number (§4 allows distinct tuples with the
    same sequence number). *)

val total_appended : t -> int
(** Number of tuples ever appended (the "size of the chronicle"). *)

val last_sn : t -> Seqnum.t option
(** Sequence number of the most recent batch appended here. *)

(** {2 Retained history}

    For detail queries over the latest window, and for recomputation
    baselines.  Every tuple delivered bumps [Stats.Chronicle_scan]. *)

val stored_count : t -> int
val scan : (Tuple.t -> unit) -> t -> unit
(** Oldest-to-newest over retained tuples. *)

val stored : t -> Tuple.t list

val restore : t -> total:int -> last_sn:Seqnum.t option -> retained:Tuple.t list -> unit
(** Snapshot support: reinstate the append counters and the retained
    window (tagged tuples, oldest first) of a freshly created
    chronicle.  Does not touch the group watermark.  Raises
    {!Restore_conflict} if the chronicle already has appends. *)

(** {2 Retraction (ℤ-weighted deltas)}

    Retraction removes stored {e occurrences} from retained history —
    it is a later event, not an un-happening of the append, so
    {!total_appended} and {!last_sn} never move.  These operations
    require [Full] retention and raise {!Not_retained} otherwise: a
    ring may already have evicted the occurrence and [Discard] never
    had it.  None of them bumps [Stats.Chronicle_scan]: they are the
    retraction write path, not history reads by maintenance, and none
    costs time in proportion to the stored history — the store is
    sn-sorted (binary search), removal leaves a dead slot that is
    compacted away once dead slots pass half the store, and rows are
    found through an occurrence index. *)

val at_sn : t -> Seqnum.t -> Tuple.t list
(** Stored tagged tuples carrying the given sequence number, oldest
    first — the at-[sn] slice that a retraction's non-linear delta
    rules diff against.  O(log |C| + slice). *)

val occurrences : t -> Tuple.t -> Seqnum.t list
(** Sequence numbers of the stored occurrences of a {e user} row
    (without [sn]), newest first, one entry per occurrence.  The
    occurrence index behind it is built on the first call, in one pass
    over the store, and maintained by every later append, removal and
    rollback; a Full chronicle that never retracts pays nothing for it
    on its appends. *)

val matching : t -> cols:int array -> Tuple.t list -> Tuple.t list
(** [matching t ~cols] builds the index over positions [cols] of the
    stored (tagged) tuples, in one pass over the store, unless it
    exists; it is then maintained like the occurrence index.  The
    returned lookup maps [keys] (each listing values in [cols] order)
    to the stored tuples whose values at [cols] equal one of them,
    oldest first — the rows a MIN/MAX re-probe of those groups reads —
    in O(rows returned + distinct sequence numbers × log |C|).  The
    lookup only reads, so fold domains may call it in parallel while
    the store does not change.  Unlike the operations above, it reads
    retained history for maintenance, so it bumps
    [Stats.Chronicle_scan] once per tuple returned. *)

val remove_stored : t -> Seqnum.t -> Tuple.t list -> unit
(** Remove one stored occurrence of each given {e user} tuple (without
    [sn]) recorded under the sequence number.  Raises
    [Invalid_argument] if any tuple has no matching stored occurrence
    left, leaving the store untouched in that case.  Under an active
    {!mark} the removals are logged, and {!rollback} revives them. *)

(** {2 Transactional recording}

    {!Db}'s atomic append path records batches and folds the affected
    views; if anything raises mid-batch it rolls every chronicle of the
    batch back to its mark.  [record] is {!append} without drawing the
    sequence number: the caller owns sequence-number discipline (the
    [sn] must have been claimed from the chronicle's group). *)

val check_batch : t -> Tuple.t list -> unit
(** Type-check a batch of user tuples against the user schema, raising
    [Invalid_argument] on the first mismatch — without recording
    anything.  The write-ahead path validates {e before} journaling so a
    batch that can never be recorded is never journaled. *)

val record : t -> Seqnum.t -> Tuple.t list -> Tuple.t list
(** Type-check, tag, store and count a batch under a claimed sequence
    number; returns the tagged tuples. *)

type mark
(** Pre-batch position of the append counters and the retained store. *)

val mark : t -> mark
(** Take a mark and start collecting undo state: ring overwrites and
    {!remove_stored} removals.  Every [mark] must be paired with
    exactly one {!commit} or {!rollback}. *)

val commit : t -> unit
(** Drop the undo state collected since {!mark} (the batch stays), and
    compact a Full store whose dead slots passed half of it. *)

val rollback : t -> mark -> unit
(** Restore counters, [last_sn] and the retained window to the mark —
    erasing every tuple recorded since, including ring overwrites, and
    reviving every occurrence removed since. *)

val tag : Seqnum.t -> Tuple.t -> Tuple.t
(** [tag sn user_tuple] prepends the sequence number. *)

val untag : Tuple.t -> Tuple.t
(** The user tuple of a tagged tuple. *)

val sn_of : Tuple.t -> Seqnum.t
(** Sequence number of a tagged tuple. *)

val pp : Format.formatter -> t -> unit
