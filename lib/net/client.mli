(** A blocking wire-protocol client: framing and transport only — the
    driving logic (scripts, printing, exit codes) lives in the CLI. *)

type t

val connect_unix : ?retries:int -> string -> t
(** Connect to a Unix-domain socket, retrying [retries] times (default
    50) at 100 ms intervals while the server is still coming up.
    Raises [Unix.Unix_error] once the budget is exhausted. *)

val close : t -> unit

val send : t -> Protocol.request -> unit
(** Write one framed request (complete, blocking). *)

val recv : t -> Protocol.response
(** Read the next response frame (blocking).  Raises [End_of_file] if
    the server closed the connection, {!Relational.Codec.Decode_error} on a
    malformed frame. *)

val split_statements : string -> string list
(** Split ℒ source into one source chunk per statement — on the [';']
    terminators, respecting single-quoted strings (with [''] escapes)
    and [--] comments.  A trailing chunk with no [';'] is kept only if
    it contains more than whitespace and comments.  On any source that
    {!Parser.parse} accepts, the chunks parse to exactly the same
    statements, one each — the invariant the CLI's fast-append mode
    relies on to pair each [APPEND INTO]'s pre-parsed rows with its
    source text. *)
