(** Deterministic fault injection for crash-safety tests.

    A {!t} is a script of faults: named {e crash points} armed with a
    countdown, and an optional {e torn write} that truncates one
    storage append mid-record.  Instrumented code (the journal, the
    checkpointer, {!Db.set_fold_probe}) calls {!hit} at each point;
    when an armed countdown reaches zero the point raises {!Crash} and
    the plan becomes {e dead} — simulating the process dying at that
    instant.

    Once dead, the durability layer freezes its stable storage (it
    ignores every further event, including the abort notification of
    the batch the crash interrupted — a dead process cannot erase its
    own write-ahead record).  The test harness then discards the
    in-memory database and runs recovery against the surviving
    storage, exactly as a restarted process would.

    Standard crash-point names used by the library:
    - ["post-journal-write"] — after a transaction record is on
      storage, before any database state mutates;
    - ["pre-checkpoint-rename"] — journal sealed and the checkpoint
      temp file written, not yet renamed to its generation;
    - ["post-checkpoint-rename"] — the new generation renamed into
      place, older generations and sealed segments not yet pruned;
    - ["view-fold"] — immediately before an affected view's fold
      (installed through {!Db.set_fold_probe} by [Durable.attach]). *)

exception Crash of string
(** The simulated process death, carrying the crash-point name (or
    ["torn-write"]). *)

exception Sync_failed of string
(** A transient storage-sync failure injected by {!arm_sync_failures},
    carrying the storage name being synced.  Unlike {!Crash} this does
    not kill the plan — it models an [EIO]-style error the durability
    layer is expected to retry through (or degrade on). *)

type t

val create : unit -> t
(** A plan with nothing armed: all hits are counted but none fire. *)

val arm : t -> ?after:int -> string -> unit
(** Arm a crash point: the [(after+1)]-th subsequent {!hit} of that
    name raises {!Crash} (default [after = 0]: the next hit). *)

val disarm : t -> string -> unit
val disarm_all : t -> unit

val hit : t -> string -> unit
(** Called by instrumented code.  Counts the hit; if the point is
    armed and its countdown is exhausted, marks the plan dead and
    raises {!Crash}.  A dead plan never fires again (the process died
    once). *)

val hit_count : t -> string -> int
(** Observed hits of a point (armed or not) — lets tests discover how
    many opportunities a workload offers before scripting crashes. *)

val is_dead : t -> bool
(** True once a crash has fired (including a torn write). *)

val revive : t -> unit
(** Clear the dead flag and all armed faults (counts survive) — for
    reusing one plan across crash/recover iterations. *)

val arm_torn_write : ?after:int -> t -> keep:int -> unit
(** Arm a torn write against {!wrap_storage}-intercepted appends: the
    [(after+1)]-th append writes only the first [keep] bytes of its
    payload (clamped to the payload length), marks the plan dead and
    raises {!Crash "torn-write"}. *)

val arm_sync_failures : ?after:int -> t -> fails:int -> unit
(** Arm transient sync failures against {!wrap_storage}-intercepted
    [sync]s: after [after] more healthy syncs, the next [fails] syncs
    each raise {!Sync_failed} (then the fault disarms itself).  The
    plan stays alive throughout — retrying code observes [fails]
    consecutive failures followed by success.  [fails] must be
    positive. *)

val wrap_storage : t -> Storage.t -> Storage.t
(** Interpose on [append] to realize armed torn writes and on [sync]
    to realize armed sync failures.  All other operations pass
    through. *)

val flip_bit : Storage.t -> name:string -> byte:int -> bit:int -> unit
(** Corrupt one bit of a stored name in place (read–flip–write) — for
    checksum-detection tests.  Raises [Invalid_argument] if the name
    is absent or the offset out of range. *)
