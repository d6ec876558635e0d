open Relational
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
    through it ({!append}); with the default batch threshold of 1 every
    append commits immediately (byte-identical to an unstaged
    {!Db.append}), while [SET BATCH n] lets up to [n] staged appends
    commit as one group — one journal record and one sync under a
    durability layer.  {!Analyze.exec} flushes the queue before any
    statement that could observe database state, so staged appends are
    never visible out of order.

    Each staged append's answer is an {!ack} in the session's queue,
    and {!acks} hands them out in staging order, which is watermark
    order, at every batch size.  A driver renders what {!acks} returns
    after each statement: the CLI prints it, the server sends it. *)

val stager : t -> Chronicle_durability.Group.t

val batch : t -> int
val set_batch : t -> int -> unit
(** Raises [Invalid_argument] if the threshold is below 1. *)

val flush : t -> unit
(** Commit everything staged (no-op when nothing is).  Raises a failed
    group's error; that group's acks carry it too. *)

type ack = {
  chronicle : string;
  count : int;  (** rows appended *)
  statement : bool;  (** staged by an [APPEND INTO] statement *)
  outcome : (Seqnum.t, exn) result;
      (** the sequence number the append committed at, or the error
          its group aborted with *)
}

val append : t -> statement:bool -> string -> Tuple.t list -> unit
(** Stage an append of rows to the named chronicle; its ack joins the
    queue, marked with [statement] (the server answers a statement's
    ack as the statement's rendered result, and a binary APPEND's as
    an ACK frame).  Raises — queuing nothing — when the append could never
    commit ({!Db.Unknown}, [Invalid_argument]).  A group that fails to
    commit raises nothing here: it rejects its acks. *)

val acks : t -> ack list
(** Every ack that has resolved and was not returned before, in staging
    order: up to the first append still staged. *)
