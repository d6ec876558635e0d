open Relational

(** The chronicle database system (Definition 2.1): a quadruple
    (𝒞, ℛ, ℒ, 𝒱) of chronicles, relations, the view-definition
    language (here: {!Sca}, statically classified by {!Classify}), and
    persistent views.

    The database has one write operation, shared by every append entry
    point and by recovery: record a list of [(sn, batch)] entries in
    order — claim each sequence number, store the batch, flush the
    future-effective relation updates that have come due, identify the
    affected persistent views through the registry (§5.2) — and fold
    the Δ of each affected view, reading neither stored chronicle
    history nor any intermediate view.  Each view's folds run as one
    ordered chain; distinct views' chains run across the maintenance
    pool.

    Live writes are {e atomic}: the step runs inside one bracket — the
    write-ahead event first, then marks on the group watermark, the
    batch chronicles, every relation and every touched view; if
    anything raises while the entries are being recorded or folded, all
    of it is rolled back before the exception propagates, so no
    partially-maintained view is ever observable ([Stats.Rollback]
    counts such aborts).  A retraction ({!retract}) is the same step
    over minus entries ({!Delta.zset}: the rows removed at each sequence
    number) in the same bracket, with logical undo.  Temporal readers —
    periodic-view families, windowed views and event rules
    ({!define_temporal}) — fold strictly after commit, in record order.  A
    durability layer can watch the bracket through {!set_txn_sink}
    (write-ahead journaling) and inject faults through
    {!set_fold_probe}. *)

type t

exception Unknown of string

exception Read_only of string
(** A mutation was attempted on a database in degraded (read-only)
    mode — carries the operation name and the reason the mode was
    entered.  See {!set_read_only}. *)

val create : ?default_group:string -> ?jobs:int -> unit -> t
(** A database starts with one chronicle group (named "main" unless
    overridden).

    [jobs] (default [1]) is the maintenance parallelism degree: the
    number of domains across which the Δ-folds of affected views are
    partitioned on each append and on replay; initial view
    materialization and ad-hoc queries are sequential at every degree.
    [0] means [Domain.recommended_domain_count ()].  At [jobs = 1] the
    transaction path is the historical sequential one — no pool, no
    task handoff — and the system's observable behaviour (including
    the per-view insertion order of every store) is byte-identical to
    a build without the parallel layer.  At [jobs > 1] each affected
    view is still folded {e wholly} by exactly one task, so per-view
    results are identical to the sequential run; only the interleaving
    {e across} views changes. *)

val jobs : t -> int
(** The effective parallelism degree ([>= 1]; [?jobs:0] has already
    been resolved to the recommended domain count). *)

val pool : t -> Exec.Pool.t
(** The database's domain pool.  Kept only for perfbench's replay, which
    passes it to {!Plan.compile_parallel} (an alias of [Plan.compile]);
    nothing in the engine reads it from outside. *)

(** {2 Catalog} *)

val add_group : t -> ?clock_start:Seqnum.chronon -> string -> Group.t
val group : t -> string -> Group.t
val default_group : t -> Group.t

val add_chronicle :
  t ->
  ?group:string ->
  ?retention:Chron.retention ->
  name:string ->
  Schema.t ->
  Chron.t

val chronicle : t -> string -> Chron.t

val add_relation :
  t ->
  ?group:string ->
  name:string ->
  schema:Schema.t ->
  ?key:string list ->
  unit ->
  Versioned.t

val relation : t -> string -> Versioned.t

val group_names : t -> string list
val chronicle_names : t -> string list
val relation_names : t -> string list
(** Catalog enumeration (sorted), for snapshots and tooling. *)

val define_view :
  t -> ?index:Index.kind -> ?tier_limit:Classify.im_class -> Sca.t -> View.t
(** Register and materialize a persistent view.  The definition is
    classified; if its view class is not contained in [tier_limit]
    (default [IM_poly_r], the largest |C|-independent class) the
    definition is rejected with [Ca.Ill_formed] — this is how the
    system guarantees its own transaction-rate envelope (§3).  If the
    view's chronicles already carry retained history the initial state
    is computed from it (requires complete retention). *)

val view : t -> string -> View.t

val drop_view : t -> string -> unit
(** Stop maintaining and forget a persistent view.  Raises {!Unknown}
    if absent. *)

val views : t -> View.t list
val classify_view : t -> string -> Classify.report
val registry : t -> Registry.t

(** {2 Temporal readers}

    Periodic-view families (§5.1), derived moving-window views and
    event rules (§6) live in the catalog beside the persistent views.
    Each folds every committed append after the transaction, in record
    order; snapshots and the journal carry them like views.  They take
    appends only: {!retract} refuses a chronicle that one of them
    reads. *)

type temporal =
  | Periodic_def of { name : string; family : Periodic.t }
  | Windowed_def of { name : string; view : Windowed_view.t }
  | Rule_def of { chronicle : string; rule : Detector.rule }
      (** added to the chronicle's detector, created on first use *)

val define_temporal : t -> temporal -> unit
(** Register a temporal reader and emit [Ev_define_temporal].  Raises
    [Invalid_argument] — registering nothing — on a periodic or windowed
    view name already taken, a duplicate rule name on the chronicle or
    key attributes missing from its schema; {!Unknown} on a rule's
    unknown chronicle. *)

val add_detector : t -> Detector.t -> unit
(** Register a whole detector for its chronicle (a snapshot's restored
    one, or one built with its own instance cap), without journaling
    it.  Raises [Invalid_argument] if the chronicle already has one. *)

val periodic : t -> string -> Periodic.t option
val windowed : t -> string -> Windowed_view.t option
val detector : t -> string -> Detector.t option
(** The detector of the named chronicle. *)

val periodics : t -> (string * Periodic.t) list
val windowed_views : t -> (string * Windowed_view.t) list
val detectors : t -> Detector.t list
(** Sorted by name (detectors: by chronicle name). *)

val has_temporal_readers : t -> bool
(** Whether the catalog holds any temporal reader (see
    {!append_group}). *)

(** {2 Transactions} *)

val append : t -> string -> Tuple.t list -> Seqnum.t
(** Append one batch of user tuples (without [sn]) to the named
    chronicle and maintain all affected persistent views. *)

val append_multi : t -> ?group:string -> (string * Tuple.t list) list -> Seqnum.t
(** One batch spanning several chronicles of one group under a single
    sequence number. *)

val append_group : t -> ?group:string -> (string * Tuple.t list) list list -> Seqnum.t list
(** Group commit: apply several append batches as {e one atomic unit}
    under a single write-ahead record ([Ev_group] — one journal append,
    one sync for the whole group).  Each batch receives its own fresh
    consecutive sequence number (returned in order), is recorded into
    its chronicles and folded into the affected views exactly as if
    appended alone; the per-view fold chains of the combined Δ are
    fanned out across the maintenance pool.  Commit is all-or-nothing:
    a failure anywhere rolls the entire group back (chronicles,
    relations, views, watermark), emits [Ev_abort], and re-raises —
    never a partial group.  Temporal readers fold strictly post-commit,
    walking the group in record order; callers for whom {e per-batch}
    fold timing is observable should check {!has_temporal_readers} and
    fall back to per-append commits.
    Raises [Invalid_argument] on an empty group, an empty batch, or a
    chronicle outside [group] — before anything is journaled. *)

val validate_batch : t -> ?group:string -> (string * Tuple.t list) list -> unit
(** The check every append entry point runs before its write-ahead
    record: the batch is non-empty, its chronicles exist ({!Unknown}
    otherwise) and belong to [group] (default: the default group), and
    every tuple matches its chronicle's schema ([Invalid_argument]
    otherwise).  Exposed so a staging queue can reject an append that
    could never commit before enqueueing it. *)

val insert_rows : t -> string -> Tuple.t list -> unit
(** Insert a batch of rows into the named relation, effective
    immediately, under the write-ahead discipline: every row is
    type-checked against the relation schema first (raising
    [Invalid_argument] before anything is journaled), then [Ev_insert]
    is emitted, then the rows land under an undo mark — a failure
    mid-batch (e.g. [Relation.Key_violation] on a keyed relation) rolls
    every row of the batch back, emits [Ev_abort] (so the journal
    erases the write-ahead record) and re-raises.  This is the {e only}
    relation-row write path that survives crash recovery; mutating a
    relation through {!Versioned.insert} directly bypasses the journal
    (the pre-PR 9 [INSERT INTO] durability hole).  Raises {!Unknown} if
    the relation is not in the catalog, {!Read_only} in degraded
    mode. *)

val retract : t -> string -> Tuple.t list -> int
(** [retract t chronicle rows] removes one stored occurrence of each
    given user row from the chronicle's retained history and propagates
    the change to every affected persistent view as the minus half of a
    delta ({!Delta.zset}); returns the number of rows retracted.  Each
    requested row resolves to its {e newest} unclaimed stored
    occurrence (deterministic); the claims are applied grouped by
    sequence number, ascending.

    Maintenance cost: rows are resolved through the chronicle's
    occurrence index ({!Chron.occurrences}, built on the chronicle's
    first retraction) and removed by binary search, so a call costs in
    proportion to the rows it claims, not to |C| or |V|, apart from
    these: COUNT/SUM-class aggregates invert in O(1) per group
    ({!Relational.Aggregate.unstep_cells}); a MIN/MAX group that loses
    its extremum is recomputed from retained history (one body evaluation
    per batch, [Stats.Aggregate_reprobe] per group); views over
    non-linear operators (∪, −, ⋈_SN, GROUPBY) diff their at-sn slices
    ([Stats.Weight_cancel]); history-reading views are rematerialized
    outright.  One successful call bumps [Stats.Retract_apply] once.
    The append path is untouched: pure append workloads never move any
    of these counters.

    Write-ahead discipline: the call runs in the same bracket as an
    append.  [Ev_retract] is emitted before any state mutates; on any
    failure the removed occurrences and every affected view's folds
    are undone from their undo logs, [Ev_abort] is emitted (the journal
    erases the write-ahead record) and the exception re-raises —
    all-or-nothing, like appends.  Temporal readers fold appends only,
    so a retraction from a chronicle one of them reads is refused.

    Raises [Invalid_argument] if a periodic view, windowed view or event
    rule reads the chronicle ("cannot retract from trades: windowed view
    w3 reads it and takes appends only"), the chronicle's retention is
    not [Full], a row fails the schema, or a row has no retained
    occurrence left; {!Unknown} if the chronicle is not in the catalog;
    {!Read_only} in degraded mode.  Validation failures precede the
    journal record. *)

val replay_retract : t -> string -> (Seqnum.t * Tuple.t list) list -> bool
(** Recovery replay of a journaled [Ev_retract]: re-apply the resolved
    entries ([(sn, user rows)]).  Idempotence marker: occurrences
    already absent from the store (the checkpoint was taken after the
    retraction applied) are skipped; returns [false] — record was a
    complete no-op — or [true] if any surviving subset applied. *)

val advance_clock : t -> ?group:string -> Seqnum.chronon -> unit

(** {2 Replay}

    Recovery re-applies journaled append and group records through the
    same record-and-fold step as live appends, at their original
    sequence numbers. *)

type replay_entry = {
  rgroup : string;  (** chronicle group name *)
  rsn : Seqnum.t;  (** the batch's original sequence number *)
  rbatch : (string * Tuple.t list) list;  (** user tuples, untagged *)
}

val replay_record : t -> grouped:bool -> replay_entry list -> bool array
(** Re-apply one journaled record atomically, inside the live bracket:
    an append record ([grouped = false], exactly one entry, journaled
    as [Ev_append]) or a group record ([grouped = true], entries of one
    chronicle group, journaled as [Ev_group] and counted as a group
    commit).  Entries at or below the group watermark are skipped
    ([false] — the idempotent recovery case); the rest must carry
    strictly increasing sequence numbers ([Group.Stale_sequence_number]
    otherwise) and apply as one unit.  On failure the whole record is
    rolled back and the exception re-raised, so recovery can treat a
    dying process's final record as applied-or-dropped, never torn. *)

exception Entry_failed of { index : int; error : exn }
(** Entry [index] of a {!replay_appends} run failed with [error].
    [index] is the position of the {e lowest} failing entry in the
    submitted list — a deterministic choice at every parallelism
    degree, because distinct views' fold chains do not interact, so
    which folds fail is independent of scheduling. *)

val replay_appends : t -> replay_entry list -> bool array
(** Re-apply a window of entries in order, {e without} the bracket;
    return per-entry [true] = applied, [false] = skipped (its sequence
    number is already at or below the group watermark).

    Recording is strictly sequential and in submission order; the
    Δ-folds are grouped into per-view chains (each view folds its
    batches in record order) and run on the database's pool — at
    [jobs = 1] inline, so the folds a view performs and the state it
    reaches are identical at every degree.  A view whose Δ reads
    retained history beyond its batch ({!Ca.reads_history}) forces a
    fold barrier before the next entry is recorded, preserving
    sequential ring-retention semantics; pending future-effective
    relation updates and temporal readers force a barrier after every
    entry.  Temporal readers fold after each barrier, in record
    order.  No write-ahead event is emitted and no undo marks are
    taken, so memory does not grow with the window.

    {b Not} transactional across entries: a failure raises
    {!Entry_failed} carrying the lowest failing index and leaves the
    database partially replayed — the intended caller (recovery)
    discards the in-memory database on failure. *)

(** {2 Transaction events}

    The durability layer observes the database through a single sink.
    [Ev_append] is emitted {e before} any state mutation (the
    write-ahead discipline); [Ev_abort] follows a rolled-back batch so
    the journal can erase its write-ahead record; catalog and clock
    events are emitted after the operation succeeds.  At most one sink
    is installed at a time. *)

type txn_event =
  | Ev_append of {
      group : string;
      sn : Seqnum.t;
      batch : (string * Tuple.t list) list;  (** user tuples, untagged *)
    }
  | Ev_group of {
      group : string;
      entries : (Seqnum.t * (string * Tuple.t list) list) list;
          (** one group commit: per-batch (sequence number, user tuples);
              emitted write-ahead like [Ev_append], erased by the
              [Ev_abort] that follows a group rollback *)
    }
  | Ev_insert of { relation : string; rows : Tuple.t list; at : int }
      (** one {!insert_rows} batch: emitted write-ahead like [Ev_append];
          [at] is the relation's live cardinality {e before} the insert —
          replay applies the record only while the current cardinality is
          at or below [at] (a checkpoint taken after the insert already
          holds the rows), the insert-path idempotence discipline.
          Erased by the [Ev_abort] that follows a rolled-back batch. *)
  | Ev_retract of {
      chronicle : string;
      entries : (Seqnum.t * Tuple.t list) list;
          (** one {!retract} operation, already resolved to stored
              occurrences: per sequence number, the user tuples whose
              occurrences were claimed.  Emitted write-ahead; replayed
              via {!replay_retract} (occurrence-presence is the
              idempotence marker); erased by the [Ev_abort] that
              follows a rolled-back retraction. *)
    }
  | Ev_clock of { group : string; chronon : Seqnum.chronon }
  | Ev_add_group of { name : string; clock_start : Seqnum.chronon option }
  | Ev_add_chronicle of {
      name : string;
      group : string;
      retention : Chron.retention;
      schema : Schema.t;
    }
  | Ev_add_relation of {
      name : string;
      group : string;
      schema : Schema.t;
      key : string list option;
    }
  | Ev_define_view of { def : Sca.t; index : Index.kind }
  | Ev_drop_view of { name : string }
  | Ev_define_temporal of temporal
      (** one {!define_temporal}, emitted after it succeeds *)
  | Ev_abort of { group : string; sn : Seqnum.t }

val set_txn_sink : t -> (txn_event -> unit) option -> unit
(** Install (or, with [None], remove) the event sink. *)

val set_fold_probe : t -> (view:string -> sn:Seqnum.t -> unit) option -> unit
(** Install a probe called immediately before each affected view's fold
    — an append's or a retraction's fold, at the entry's
    sequence number — the fault-injection hook: a probe that raises
    aborts the batch or retraction mid-maintenance, exercising the
    rollback path. *)

val set_read_only : t -> string option -> unit
(** [set_read_only t (Some reason)] puts the database in degraded
    mode: every mutating entry point — appends, group commits, replay,
    clock advances, catalog changes — raises {!Read_only} before
    touching any state, while queries keep serving.  [None] restores
    normal operation.  Set by salvage recovery (damaged storage was
    quarantined, so accepting new writes could silently diverge from
    what a later repair restores) and by the durability layer when
    storage sync failures exhaust their retry budget. *)

val read_only : t -> string option
(** The degraded-mode reason, if the database is read-only. *)

(** {2 Summary queries} *)

val summary : t -> view:string -> Value.t list -> Tuple.t option
(** Point lookup by the view's logical key — the paper's motivating
    "sub-second summary query", answered entirely from the persistent
    view. *)

val view_contents : t -> string -> Tuple.t list
