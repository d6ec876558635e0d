open Chronicle_core

(** Crash-safe operation of a chronicle database: write-ahead
    journaling, atomic checkpoints, and recovery.

    A chronicle is an unbounded stream the system deliberately does not
    store, so the materialized views {e are} the database — losing them
    to a crash is losing data that cannot be recomputed.  This module
    makes the transaction path durable:

    {ol
    {- {b Journal.}  {!attach} installs a {!Db.set_txn_sink}; every
       append (and catalog change) is framed, checksummed and written
       to the journal {e before} any in-memory state mutates.  If the
       batch is rolled back ({!Db}'s atomic path), the write-ahead
       record is erased again.}
    {- {b Checkpoint.}  {!checkpoint} serializes the full database
       ({!Snapshot.save}), seals the journal, writes the next
       generation ["checkpoint.<g>"] to a temp name and atomically
       renames it into place, and only then prunes the generations and
       sealed segments nothing retained needs — at every instant, the
       newest generation + the journal it does not cover describe the
       database.}
    {- {b Recovery.}  {!recover} loads the last checkpoint and replays
       the journal suffix through the normal delta-maintenance path
       (Db's record-and-fold step, {!Db.replay_appends} and
       {!Db.replay_record}): views are rebuilt by the same folds that
       built them live, never by scanning chronicle history.  One
       pipeline serves both {!mode}s: every segment is read by
       {!read_segment} (the reader scrub uses too), the records before
       the first damage replay through one loop, and the mode only
       decides what damage does — [Strict] raises, [Salvage] cuts the
       journal there.  A torn final record is dropped.  Replay is
       idempotent: records whose effects are already in the
       checkpoint are skipped.}}

    Group commit: a {!Db.append_group} reaches the sink as one
    [Ev_group] and is framed as {e one} journal record — one storage
    append, one sync for the whole group, which is the entire
    throughput story of batched appends under [Sync_always].  On
    recovery a non-final group record is flattened into the replay
    window (it is fully committed — its record survived the next
    write); the journal's {e final} record, append or group, is
    re-applied atomically through {!Db.replay_record} — the live
    bracket at the journaled sequence numbers — so a process that died
    mid-group recovers to pre-group or post-group state, never a
    partial group.  Report counts stay record-granular: a group record
    counts once, replayed if any of its batches applied.

    Faults: give {!attach}/{!recover} a {!Fault.t} to script crashes
    at the named points (["post-journal-write"] — hit after every
    write-ahead record, single appends and groups alike;
    ["post-group-write"] — hit after group records only, targeting the
    half-committed-group window; ["pre-checkpoint-rename"],
    ["post-checkpoint-rename"], ["view-fold"]; ["replay-dispatch"] —
    the last hit by {!recover} once per replay window, before its
    batches are dispatched) or torn writes.  After a simulated crash the
    instance's storage is frozen (a dead process writes nothing more);
    discard the database and {!recover} from the same storage.

    Not journaled (documented limits, mirrors {!Snapshot}): direct
    {!Versioned} relation updates are durable only from the next
    {!checkpoint}; event-rule listeners ({!Detector.on_match}) must be
    re-registered after recovery.  Temporal readers
    ({!Db.define_temporal}) are journaled and checkpointed like views. *)

exception Recovery_error of { record : int; reason : string }
(** A non-final journal record failed to replay — the journal is
    logically damaged beyond the tolerated torn tail. *)

exception Checkpoint_corrupt of { generation : int option; reason : string }
(** Strict recovery found checkpoints but could verify none of them —
    every generation failed its CRC or would not load, and a bare
    ["checkpoint"] (the single-file layout of an earlier build) never
    verifies: its reason says to rename it to ["checkpoint.0"], whose
    bytes are identical.  Carries the newest candidate's generation
    ([None] for the bare file) and failure reason.  Salvage recovery
    never raises this: it degrades instead. *)

val journal_file : string  (** ["journal"] *)

val checkpoint_tmp_file : string  (** ["checkpoint.tmp"] *)

val quarantine_name : string -> string
(** [quarantine_name n] = ["<n>.quarantine"] — the sidecar salvage
    recovery parks damaged bytes under.  Sidecars only grow: each
    salvage appends what it quarantines after the bytes an earlier
    salvage parked there, and never replaces them. *)

type t

(** Self-reported condition of a durable instance.  [Degraded] — set
    when salvage recovery quarantined damage, or when storage syncs
    exhausted their retry budget — makes the database read-only
    (mutations raise {!Db.Read_only}; queries keep serving). *)
type health = Healthy | Degraded of string

val attach :
  ?fault:Fault.t ->
  ?sync:Journal.sync_policy ->
  ?keep_checkpoints:int ->
  ?segment_bytes:int ->
  storage:Storage.t ->
  Db.t ->
  t
(** Start journaling the database's transaction path into [storage].
    If no checkpoint exists yet, an initial checkpoint is written
    first (capturing any catalog state that predates attachment).  A
    stale ["checkpoint.tmp"] (crash between write and rename) is
    deleted.  Default [sync] is {!Journal.Sync_always}.

    [keep_checkpoints] (default [1]) is the number of checkpoint
    generations retained: every checkpoint writes the next generation
    ["checkpoint.<g>"], one CRC'd {!Ckpt} frame over a sealed journal,
    and prunes to the newest [K].  [segment_bytes] bounds journal
    segments (default: unbounded — the journal is sealed only at
    checkpoints); see {!Journal}.  Raises [Invalid_argument] if
    [keep_checkpoints < 1]. *)

val db : t -> Db.t
val fault : t -> Fault.t
val sync_policy : t -> Journal.sync_policy

val journal_records : t -> int
val journal_bytes : t -> int

val health : t -> health
(** Transient sync failures are retried with bounded backoff (each
    retry bumps [Stats.Sync_retry]); when the budget is exhausted the
    instance flips to [Degraded] — and the database to read-only —
    instead of raising mid-append. *)

val keep_checkpoints : t -> int

val checkpoint : t -> unit
(** Snapshot → journal seal → temp write → atomic rename to the next
    generation → prune to the newest [keep_checkpoints] generations and
    the sealed segments they need; one path at every
    [keep_checkpoints].  Bumps [Stats.Checkpoint].  Raises
    {!Snapshot.Snapshot_error} if the database cannot be snapshotted (e.g. pending future-effective
    relation updates); the journal is left untouched in that case. *)

val detach : t -> unit
(** Uninstall the sink and the fold probe; the database keeps running
    without durability. *)

(** How recovery treats damage beyond the tolerated torn tail — the
    mode is a damage policy and nothing else; both modes replay through
    the same loop.  [Strict] (the default) raises at the first damage —
    {!Journal.Journal_corrupt}, {!Recovery_error} or
    {!Checkpoint_corrupt} — leaving storage untouched for forensics.
    [Salvage] recovers the maximal consistent prefix: it cuts the
    journal at the first damaged record, or at the first non-final
    record that fails to apply (then replaying the shorter prefix again
    from the verified checkpoint bytes); it quarantines the suffix from
    the cut on (and every later segment) to [".quarantine"] sidecars —
    never silently dropping bytes — and opens the database read-only
    ([Degraded]); queries serve, appends raise {!Db.Read_only}. *)
type mode = Strict | Salvage

type report = {
  generation : int option;
      (** the generation that served ([None]: no checkpoint verified,
          or there was none) *)
  fallbacks : int;
      (** damaged checkpoint candidates skipped before one verified
          (each bumps [Stats.Checkpoint_fallback]) *)
  replayed : int;
      (** records re-applied through the delta path (by the final
          replay, when salvage replayed a shorter prefix again) *)
  skipped : int;  (** records already covered by the checkpoint *)
  dropped_torn : bool;  (** a torn final record was cut off *)
  dropped_failed : bool;
      (** a complete final record failed to replay and was dropped
          (its batch died with the crashed process) *)
  quarantined : int;
      (** quarantine sidecars written by salvage (each bumps
          [Stats.Salvage_quarantined]) *)
  degraded : bool;  (** the instance opened read-only *)
}

val recover :
  ?fault:Fault.t ->
  ?sync:Journal.sync_policy ->
  ?jobs:int ->
  ?mode:mode ->
  ?keep_checkpoints:int ->
  ?segment_bytes:int ->
  storage:Storage.t ->
  unit ->
  t * report
(** Rebuild the database from checkpoint + journal and re-attach.
    [Stats.Journal_replay] is bumped by [replayed], once recovery
    succeeds.

    Checkpoint selection is {e layout-driven}, independent of the
    parameters: the newest generation that verifies (header CRC,
    payload CRC, snapshot loads) wins; each failure falls back one
    generation — replaying the correspondingly longer journal suffix,
    from the older generation's [first_segment] — and last to a bare
    ["checkpoint"], which never verifies (see {!Checkpoint_corrupt}).
    If every candidate fails, [Strict] raises
    {!Checkpoint_corrupt}; [Salvage] starts from an empty database,
    replays what it can and degrades.  [keep_checkpoints] and
    [segment_bytes] only shape {e future} checkpoints and rotation of
    the re-attached instance.  A stale ["checkpoint.tmp"] is deleted
    before anything else.

    Failures are typed, never a bare [Failure]:
    {!Journal.Journal_corrupt} for physical corruption (checksum
    mismatch, a torn sealed segment) {e and} for a CRC-valid but
    structurally malformed record — unknown tag, missing or
    ill-shaped field, bad index kind — at any position, final
    included (the checksum proved the bytes are what was written;
    gibberish content is corruption, not a died batch).  It names the
    {e earliest} damaged record in journal order.  {!Recovery_error}
    if a well-formed non-final record fails to {e apply}.  A
    well-formed final record that fails to apply is the batch that
    died with the crashed process: it is dropped ([dropped_failed])
    and its journal record erased — only when nothing follows it; a
    record that damage follows is not the journal's final record.

    Replay is parallel in both modes: runs of consecutive append and
    group records are dispatched as windows through
    {!Db.replay_appends} (the record-and-fold step without the
    bracket), which records batches in journal order and schedules
    each view's ordered fold chain across the database's pool
    ([jobs], as {!Db.create}).  Catalog and clock records,
    history-reading views ({!Ca.reads_history}) and the replayed
    prefix's last record are sequential barriers.  The recovered state
    is byte-identical at every degree — each view folds its batches
    wholly and in journal order; only the interleaving across views
    changes. *)

val has_state : Storage.t -> bool
(** True if the {!layout} lists a checkpoint candidate or a journal
    (active or sealed segment) — i.e. {!recover} has something to work
    from. *)

(** {2 Saved snapshots} *)

val save_snapshot : Db.t -> string
(** The database as a checkpoint frame of generation 0 over no journal
    ([chronicle-cli run --save]).  Raises {!Snapshot.Snapshot_error} as
    {!Snapshot.save} does. *)

val load_snapshot : ?jobs:int -> string -> Db.t
(** Rebuild a database from {!save_snapshot} bytes.  Raises
    {!Checkpoint_corrupt} (generation [None]) on bytes that do not
    verify or do not load; the reason names a foreign format
    (["CHRONSES3"]) or another checkpoint version. *)

(** {2 The storage layout} *)

type layout = {
  checkpoints : (int option * string) list;
      (** checkpoint candidates: a bare ["checkpoint"] left by an
          earlier build first ([None]), then the generations
          ["checkpoint.<g>"] ascending *)
  sealed : (int * string) list;
      (** sealed journal segments ["journal.<seq>"], ascending *)
  active : bool;  (** the active ["journal"] exists *)
}

val layout : Storage.t -> layout
(** The one listing of what storage holds, discovered by naming
    convention over [Storage.list].  Recovery, {!Scrub}, {!has_state},
    the initial checkpoint and pruning all read it. *)

val verify_checkpoint :
  int option * string -> string -> (Ckpt.header * string, string) result
(** [verify_checkpoint candidate contents]: the header and payload of a
    checkpoint candidate's bytes ({!Ckpt.decode}), or why they do not
    verify.  A bare ["checkpoint"] ([None]) never verifies. *)

(** {2 Journal records} *)

val put_event : Buffer.t -> Db.txn_event -> unit
(** The {!Relational.Codec} encoding of one event — the payload of its
    journal record.  One tag byte, then the event's fields in
    declaration order; a view definition travels as its own
    length-prefixed encoding, decoded only when the record is applied
    (so a name it cannot resolve is a {!Recovery_error}, not
    corruption).  Raises [Invalid_argument] on [Ev_abort], which is
    never journaled. *)

(** {2 Reading the journal} *)

type record
(** One decoded journal record. *)

(** How a journal segment ends. *)
type segment_end =
  | Complete  (** every byte accounted for *)
  | Torn_tail
      (** the {e active} segment died mid-append: tolerated, and cut
          off by recovery *)
  | Damaged of Journal.damage
      (** the first damage: a checksum mismatch, a foreign magic or
          format version, a torn {e sealed} segment (["sealed segment
          torn"]) or a CRC-valid payload that does not decode
          (["malformed record: …"], the offset of the failed field
          appended).  [index] counts the records before it. *)

type 'a segment = {
  bytes : string;  (** the whole contents; [""] if the name is absent *)
  records : 'a;  (** the fold over the decoded records before the end *)
  ended : segment_end;
}

val read_segment :
  Storage.t ->
  sealed:bool ->
  string ->
  init:'a ->
  add:('a -> record -> int -> 'a) ->
  'a segment
(** Scan one journal segment, decode every CRC-valid record, fold
    [add] over the decoded records in journal order (with each
    record's byte offset), and classify how the segment ends.  Total:
    never raises, whatever the bytes.  The one reader under recovery
    (both modes, which keep the records) and {!Scrub} (which only
    counts them). *)
