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
    behaviour are byte-identical to unstaged appends.  Any larger group
    commits as one {!Db.append_group}, whatever the catalog holds:
    views fold each entry in the group's write step, and temporal
    readers (periodic families, windowed views, event rules) take each
    entry's input there too and apply it after the group commits, in
    record order.  Every reader therefore ends in the state per-append
    commits reach; only rule listeners ([Detector.on_match]) observe
    the difference, firing after the group commits rather than after
    each append.

    Failure: {!stage} validates eagerly and raises on an append that
    could never commit ([Db.Unknown], [Invalid_argument], type errors)
    without enqueuing it.  If a flushed group aborts, {e every} ticket
    of that group resolves to [Error] (all-or-nothing, matching the
    journal's group atomicity); {!flush} re-raises the failure, while a
    flush that {!stage} triggers leaves it to the tickets. *)

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
    the threshold.  A failure of that flush does not raise: it resolves
    the tickets of the failed group to [Error]. *)

val flush : t -> unit
(** Commit everything staged, in order, as one group per chronicle
    group (in practice: one group).  No-op on an empty queue. *)

val await : t -> ticket -> (Seqnum.t, exn) result
(** The ticket's outcome, flushing first if it is still queued:
    [Ok sn] — committed at sequence number [sn]; [Error e] — its group
    aborted with [e].  Tickets resolve in staging order, so awaiting
    the most recent ticket resolves all earlier ones. *)

val resolved : ticket -> (Seqnum.t, exn) result option
(** The ticket's outcome if it has resolved, without flushing. *)
