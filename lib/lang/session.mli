open Chronicle_core

(** A language session: a chronicle database plus the staging queue its
    appends go through.  Everything a statement defines — views,
    periodic and windowed views, event rules — lives in the database's
    catalog, so every session over one database sees it. *)

type t

val create : unit -> t
(** A session over a fresh database. *)

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
