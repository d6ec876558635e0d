(** Whole-session snapshots.

    {!Chronicle_core.Snapshot} captures the database (catalog, group
    watermarks/clocks, relations, retained windows, persistent-view
    materializations).  A language session additionally owns periodic
    view families, derived windowed views and event detectors; this
    module serializes all of it to one {!Relational.Codec} byte string
    behind the magic ["CHRONSES3\n"] (format version 3), so `chronicle-cli run --save/--load`
    restores a session exactly — partial event-pattern instances, open
    billing periods, cyclic window buffers and all.

    Still not captured: pending future-effective relation updates
    (their update functions are code; saving refuses while any are
    queued) and [on_match]/[on_batch] callbacks (re-register after
    load). *)

exception Session_snapshot_error of string

val save : Session.t -> string
val load : ?jobs:int -> string -> Session.t
(** Raises {!Session_snapshot_error} on any input that is not a
    version-3 session snapshot — a foreign magic, another format
    version (version 1 was S-expression text, version 2 repeated each
    window's clock per aggregate call; the reason names it), or
    a payload that does not decode or load (the reason carries the
    byte offset inside the payload).  [jobs] is the maintenance
    parallelism degree of the restored database (see
    {!Chronicle_core.Db.create}). *)

val save_file : Session.t -> string -> unit
val load_file : ?jobs:int -> string -> Session.t
