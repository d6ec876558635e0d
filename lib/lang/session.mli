open Chronicle_core
open Chronicle_temporal
open Chronicle_events

(** A language session: a chronicle database plus the periodic-view
    families and derived windowed views defined through the surface
    language (the database itself only knows plain persistent views;
    the temporal extensions live one layer up). *)

type t

val create : ?jobs:int -> unit -> t
(** [jobs] is the maintenance parallelism degree of the underlying
    database (see {!Db.create}; default 1 = sequential, 0 = the
    recommended domain count). *)

val of_db : Db.t -> t
(** Wrap an existing database (e.g. one restored from a snapshot). *)

val db : t -> Db.t

(** {2 Group commit}

    Every session owns a staging queue ({!Chronicle_durability.Group})
    in front of the database's transaction path.  [APPEND INTO] goes
    through it; with the default batch threshold of 1 every append
    commits immediately (byte-identical to an unstaged {!Db.append}),
    while [SET BATCH n] lets up to [n] staged appends commit as one
    group — one journal record and one sync under a durability layer.
    {!Analyze.exec} flushes the queue before any statement that could
    observe database state, so staged appends are never visible out of
    order. *)

val stager : t -> Chronicle_durability.Group.t

val batch : t -> int
val set_batch : t -> int -> unit
(** Raises [Invalid_argument] if the threshold is below 1. *)

val flush : t -> unit
(** Commit everything staged (no-op when nothing is). *)

val add_periodic : t -> string -> Periodic.t -> unit
(** Raises [Invalid_argument] on a duplicate name. *)

val periodic : t -> string -> Periodic.t option

val add_windowed : t -> string -> Windowed_view.t -> unit
val windowed : t -> string -> Windowed_view.t option

val detector : t -> Chron.t -> Detector.t
(** The (unique, lazily created and database-attached) event detector
    of a chronicle. *)

val detectors : t -> Detector.t list

(** {2 Enumeration} (sorted by name; session snapshots and tooling) *)

val periodics : t -> (string * Periodic.t) list
val windowed_views : t -> (string * Windowed_view.t) list
val named_detectors : t -> (string * Detector.t) list
(** Keyed by chronicle name. *)

val append_only_reader : t -> Chron.t -> string option
(** The first periodic view, windowed view or event rule of the session
    that reads the chronicle, named for an error message ("windowed view
    w3"), or [None].  These fold appends only: a retraction would
    leave them silently stale. *)
