open Relational
open Chronicle_core

(** Group commit: a staging queue in front of {!Db}'s transaction path.

    Many logical sessions hand their appends to {!stage}; a single
    committer ({!flush}) drains the queue into one {!Db.append_group} —
    under a durability layer, one journal record and one sync for the
    whole group — and resolves each staged append's {!ticket} in
    staging order, which {e is} watermark order (the group's sequence
    numbers are claimed consecutively in queue order).

    Flush triggers: the queue reaching the batch threshold
    ({!set_batch}), an explicit {!flush}, or {!await} on a still-pending
    ticket (the caller needs its answer — the queue has gone idle from
    its point of view).  Single-statement drivers flush before every
    read so staged appends are never observable out of order.

    Transparency: with a batch threshold of 1, or a group of one, a
    flush commits through the plain per-append path
    ({!Db.append_multi}) — journal layout, counters and observable
    behaviour are byte-identical to unstaged appends.  A database with
    temporal readers ({!Db.has_temporal_readers} — periodic families,
    windowed views and event rules) also falls back to per-append
    commits, because group commit defers their folds to the end of the
    group, and a fold that reads the group clock or a rule listener that
    reads database state mid-group could observe the difference.  Group records are only ever written when
    they are provably transparent.

    Failure: {!stage} validates eagerly and raises on an append that
    could never commit ([Db.Unknown], [Invalid_argument], type errors)
    without enqueuing it.  If a flushed group aborts, {e every} ticket
    of that group resolves to [Error] (all-or-nothing, matching the
    journal's group atomicity) and the exception re-raises to the
    flusher. *)

type t

type ticket
(** The deferred-ack handle of one staged append. *)

val create : ?batch:int -> Db.t -> t
(** A stager over [db] with batch threshold [batch] (default 1 —
    every staged append commits immediately).  Raises
    [Invalid_argument] if [batch < 1]. *)

val db : t -> Db.t

val batch : t -> int
val set_batch : t -> int -> unit
(** Change the flush threshold; flushes immediately if the queue has
    already reached the new threshold.  Raises [Invalid_argument] if
    the threshold is below 1. *)

val pending : t -> int
(** Staged appends not yet committed. *)

val stage : t -> ?group:string -> (string * Tuple.t list) list -> ticket
(** Stage one append batch (the multi-chronicle shape of
    {!Db.append_multi}).  Validates immediately — an append that could
    never commit raises here and is never enqueued — then enqueues,
    bumps [Stats.Staged_appends], and flushes if the queue has reached
    the threshold. *)

val flush : t -> unit
(** Commit everything staged, in order, as one group per chronicle
    group (in practice: one group).  No-op on an empty queue. *)

val await : t -> ticket -> (Seqnum.t, exn) result
(** The ticket's outcome, flushing first if it is still queued:
    [Ok sn] — committed at sequence number [sn]; [Error e] — its group
    aborted with [e].  Tickets resolve in staging order, so awaiting
    the most recent ticket resolves all earlier ones. *)
