open Relational

(** Request/response vocabulary of the chronicle wire protocol.

    Requests (client → server), one opcode byte then typed fields:
    {ul
    {- [0x01] STMT — one or more ℒ statements as text; the server
       parses and executes them in order, answering one response per
       statement.}
    {- [0x02] APPEND — the fast path: chronicle name + pre-parsed typed
       rows.  The server skips the lexer/parser entirely and stages the
       batch straight into the session's group-commit queue.}
    {- [0x03] FLUSH — commit everything staged on this session and
       resolve the deferred acks; answered by FLUSHED after the acks.}
    {- [0x04] PING — liveness; answered by PONG.}
    {- [0x05] SHUTDOWN — stop the server once every connection drains;
       answered by BYE.}
    {- [0x06] RETRACT — chronicle name + pre-parsed typed rows, removed
       as a ℤ-weighted (weight [-1]) delta; executed exactly like an ℒ
       [RETRACT FROM] (the session's staging queue flushes first) and
       answered by RESULT.}}

    Responses (server → client):
    {ul
    {- [0x81] RESULT — one statement's rendered result text.}
    {- [0x82] ACK — one append's commit: chronicle, sequence number,
       row count.  Acks always arrive in watermark order; under
       [SET BATCH n] ([n > 1]) they are deferred until the group
       commits and delivered before any later non-append response.}
    {- [0x83] ERR — a typed failure: protocol (malformed frame — the
       server closes the connection after sending it), parse, semantic,
       or exec.}
    {- [0x84] FLUSHED, [0x85] PONG, [0x86] BYE.}} *)

type request =
  | Stmt of string
  | Append of { chronicle : string; rows : Value.t list list }
  | Flush
  | Ping
  | Shutdown
  | Retract of { chronicle : string; rows : Value.t list list }

type err_kind = E_protocol | E_parse | E_semantic | E_exec

type response =
  | Result of string
  | Ack of { chronicle : string; sn : int; count : int }
  | Err of { kind : err_kind; message : string }
  | Flushed
  | Pong
  | Bye

val err_kind_name : err_kind -> string

val error_of_exn : exn -> (err_kind * string) option
(** The typed error a failed statement reports: its kind and the text
    both the server ([Err]) and a local [chronicle-cli run] (stderr)
    print.  [None] for an exception that is not a statement error. *)

val encode_request : request -> string
(** The complete frame (length prefix included), ready to write. *)

val encode_response : response -> string

val decode_request : string -> request
(** Decode one frame {e payload} (as returned by {!Wire.split}).
    Raises {!Wire.Decode_error} on an unknown opcode or any malformed
    field — including trailing garbage after a well-formed body. *)

val decode_response : string -> response
