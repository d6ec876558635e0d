open Chronicle_core

(** The chronicle server: a single-process event loop multiplexing many
    concurrent client connections over one shared {!Db}, each
    connection owning its own {!Chronicle_lang.Session} (its own
    group-commit staging queue and ack queue) while
    every committed append lands in the one shared database — and, when
    a durability layer is attached to that database, in its one
    journal, which remains the single commit point.

    The per-connection protocol machine ({!accept}/{!feed}) is pure
    byte-in/byte-out, independent of any socket — the event loop
    ({!serve}) is a thin [Unix.select] front end over it, and tests
    drive the machine directly with crafted frames.

    Semantics worth knowing:
    {ul
    {- Acks resolve in watermark order, through the session's ack
       queue ({!Chronicle_lang.Session.acks}): under [SET BATCH n]
       ([n > 1]) an APPEND's ack — or its ERR, if its group failed — is
       deferred until its group commits and is delivered before any
       later non-append response on that connection — the same order a
       CLI run of the same script prints.}
    {- Staging is per-session: one connection's staged-but-unflushed
       appends are not visible to another connection's reads until they
       commit (threshold reached, FLUSH, or any non-append statement on
       the staging connection).}
    {- A malformed frame (truncated, oversized, unknown opcode, bad
       field) gets a typed [E_protocol] error response and the
       connection closes after the error is sent; the database is never
       touched by a frame that does not decode.}} *)

type t

val create : ?batch:int -> ?max_frame:int -> Db.t -> t
(** [batch] is the initial staging threshold of every new connection's
    session (clients change theirs with [SET BATCH n]); [max_frame]
    caps accepted frame sizes (default {!Wire.max_frame}). *)

val db : t -> Db.t

val shutdown_requested : t -> bool
(** Set once any connection sends SHUTDOWN; {!serve} stops accepting,
    drains every connection and returns. *)

(** {2 The per-connection protocol machine} *)

type conn

val accept : t -> conn
(** A new logical connection: a fresh session over the shared
    database. *)

val feed : conn -> string -> string
(** Feed raw bytes from the peer; returns the response bytes this input
    produced (possibly [""]).  Complete frames are decoded and
    dispatched in order; a trailing partial frame is buffered for the
    next call. *)

val closing : conn -> bool
(** The connection must be closed once already-returned response bytes
    are flushed (after a protocol error or BYE).  Further {!feed}s
    return [""]. *)

val disconnect : conn -> unit
(** Tear the connection down: staged-but-unacked appends are flushed to
    the shared database (commit, not lose — their write-ahead records
    are the journal's), errors ignored. *)

(** {2 The socket front end} *)

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path (unlinking any stale
    socket file first). *)

val serve : ?on_ready:(unit -> unit) -> t -> Unix.file_descr -> unit
(** Run the event loop on a listening socket until a client sends
    SHUTDOWN: accept, read, {!feed}, write back, multiplexing every
    connection through one [Unix.select].  [on_ready] runs once the
    loop is about to start accepting.  Closes the listening socket
    before returning. *)
