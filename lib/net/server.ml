open Relational
open Chronicle_core
open Chronicle_lang
module Staging = Chronicle_durability.Group

type t = {
  database : Db.t;
  batch : int;
  max_frame : int;
  mutable shutdown : bool;
}

let create ?(batch = 1) ?(max_frame = Wire.max_frame) database =
  if batch < 1 then invalid_arg "Server.create: batch must be at least 1";
  { database; batch; max_frame; shutdown = false }

let db t = t.database
let shutdown_requested t = t.shutdown

(* ---- the per-connection protocol machine ---- *)

type pending = { p_chronicle : string; p_count : int; p_ticket : Staging.ticket }

type conn = {
  server : t;
  session : Session.t;
  inbuf : Buffer.t; (* the trailing partial frame, if any *)
  out : Buffer.t; (* responses produced by the current [feed] *)
  pending : pending Queue.t; (* deferred acks, staging = watermark order *)
  mutable is_closing : bool;
}

let accept server =
  let session = Session.of_db server.database in
  Session.set_batch session server.batch;
  {
    server;
    session;
    inbuf = Buffer.create 256;
    out = Buffer.create 256;
    pending = Queue.create ();
    is_closing = false;
  }

let closing conn = conn.is_closing

let send conn resp = Buffer.add_string conn.out (Protocol.encode_response resp)

(* Failures rendered exactly as the CLI's [report_error], so a client
   printing [Err] messages is byte-compatible with a local run *)
let err_of_exn = function
  | Lexer.Lex_error { message; line; column } ->
      Protocol.Err
        {
          kind = Protocol.E_parse;
          message = Printf.sprintf "lex error at %d:%d: %s" line column message;
        }
  | Parser.Parse_error { message; line } ->
      Protocol.Err
        {
          kind = Protocol.E_parse;
          message = Printf.sprintf "parse error at line %d: %s" line message;
        }
  | Analyze.Semantic_error message ->
      Protocol.Err
        { kind = Protocol.E_semantic; message = "semantic error: " ^ message }
  | Ca.Ill_formed message ->
      Protocol.Err
        { kind = Protocol.E_semantic; message = "algebra error: " ^ message }
  | Db.Unknown message ->
      Protocol.Err
        { kind = Protocol.E_semantic; message = "catalog error: " ^ message }
  | Db.Read_only message ->
      Protocol.Err { kind = Protocol.E_exec; message }
  | e -> Protocol.Err { kind = Protocol.E_exec; message = Printexc.to_string e }

(* Resolve every queued ack.  Callers guarantee the tickets are already
   resolved (the stager just flushed, or its queue is empty), so
   [Staging.await] returns without forcing a partial group out. *)
let drain conn =
  while not (Queue.is_empty conn.pending) do
    let p = Queue.pop conn.pending in
    match Staging.await (Session.stager conn.session) p.p_ticket with
    | Ok sn ->
        send conn
          (Protocol.Ack { chronicle = p.p_chronicle; sn; count = p.p_count })
    | Error e -> send conn (err_of_exn e)
  done

let drain_if_resolved conn =
  if
    (not (Queue.is_empty conn.pending))
    && Staging.pending (Session.stager conn.session) = 0
  then drain conn

let render result = Format.asprintf "%a" Analyze.pp_result result

let exec_stmt conn stmt =
  match Analyze.exec conn.session stmt with
  | Analyze.Staged { chronicle; count; ticket } ->
      Queue.add
        { p_chronicle = chronicle; p_count = count; p_ticket = ticket }
        conn.pending;
      (* a threshold-triggered flush may have committed the group
         already — deliver the acks now rather than on the next
         statement *)
      drain_if_resolved conn
  | result ->
      (* [exec] flushed the session's stager before running, so every
         deferred ack is resolved and must precede this result — the
         CLI's pending-queue print order *)
      drain conn;
      send conn (Protocol.Result (render result))
  | exception e ->
      drain_if_resolved conn;
      send conn (err_of_exn e)

(* The fast path: no lexer, no parser — the payload's typed values feed
   the staging queue (and through it Db.append_group) directly.
   Validation mirrors [Analyze]'s APPEND INTO: unknown chronicle and
   ill-typed rows surface as the same semantic errors. *)
let exec_append conn chronicle rows =
  let database = Session.db conn.session in
  match Db.chronicle database chronicle with
  | exception Db.Unknown msg ->
      send conn
        (Protocol.Err
           { kind = Protocol.E_semantic; message = "semantic error: " ^ msg })
  | c -> (
      let stager = Session.stager conn.session in
      let tuples = List.map Tuple.make rows in
      match
        Staging.stage stager
          ~group:(Group.name (Chron.group c))
          [ (chronicle, tuples) ]
      with
      | exception Invalid_argument msg ->
          send conn
            (Protocol.Err
               { kind = Protocol.E_semantic; message = "semantic error: " ^ msg })
      | exception e -> send conn (err_of_exn e)
      | ticket ->
          let count = List.length tuples in
          if Staging.batch stager <= 1 then
            match Staging.await stager ticket with
            | Ok sn -> send conn (Protocol.Ack { chronicle; sn; count })
            | Error e -> send conn (err_of_exn e)
          else begin
            Queue.add
              { p_chronicle = chronicle; p_count = count; p_ticket = ticket }
              conn.pending;
            drain_if_resolved conn
          end)

let protocol_error conn message =
  send conn (Protocol.Err { kind = Protocol.E_protocol; message });
  conn.is_closing <- true

let handle_payload conn payload =
  match Protocol.decode_request payload with
  | exception Codec.Decode_error msg -> protocol_error conn msg
  | Protocol.Stmt text -> (
      match Parser.parse text with
      | exception e -> send conn (err_of_exn e)
      | stmts -> List.iter (exec_stmt conn) stmts)
  | Protocol.Append { chronicle; rows } -> exec_append conn chronicle rows
  | Protocol.Retract { chronicle; rows } ->
      (* no fast path: retraction is rare and transactional — route it
         through the statement machinery so the staging queue flushes
         first and the rendered result matches a local RETRACT FROM *)
      exec_stmt conn (Ast.Retract_from { chronicle; rows })
  | Protocol.Flush ->
      (match Session.flush conn.session with
      | () -> drain conn
      | exception _ -> drain conn);
      send conn Protocol.Flushed
  | Protocol.Ping -> send conn Protocol.Pong
  | Protocol.Shutdown ->
      (match Session.flush conn.session with () -> drain conn | exception _ -> drain conn);
      conn.server.shutdown <- true;
      send conn Protocol.Bye;
      conn.is_closing <- true

let feed conn bytes =
  Buffer.clear conn.out;
  if not conn.is_closing then begin
    Buffer.add_string conn.inbuf bytes;
    let data = Buffer.contents conn.inbuf in
    let pos = ref 0 and continue = ref true in
    while !continue do
      match Wire.split ~max_frame:conn.server.max_frame data ~pos:!pos with
      | exception Codec.Decode_error msg ->
          protocol_error conn msg;
          continue := false
      | `Need_more -> continue := false
      | `Frame (payload, next) ->
          pos := next;
          handle_payload conn payload;
          if conn.is_closing then continue := false
    done;
    Buffer.clear conn.inbuf;
    if not conn.is_closing then
      Buffer.add_substring conn.inbuf data !pos (String.length data - !pos)
  end;
  Buffer.contents conn.out

let disconnect conn =
  conn.is_closing <- true;
  (* commit, don't lose: staged appends were validated and (if a
     durability layer is attached) will be journaled by the flush — the
     peer just never hears the acks *)
  match Session.flush conn.session with () -> () | exception _ -> ()

(* ---- the socket front end ---- *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

type sock = {
  sfd : Unix.file_descr;
  sconn : conn;
  mutable unsent : string;
}

let serve ?(on_ready = fun () -> ()) t lfd =
  (* a peer that disappears mid-write must surface as EPIPE on the
     write, not kill the whole server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let socks = ref [] in
  let listener_open = ref true in
  let close_listener () =
    if !listener_open then begin
      listener_open := false;
      try Unix.close lfd with Unix.Unix_error _ -> ()
    end
  in
  let remove s =
    disconnect s.sconn;
    (try Unix.close s.sfd with Unix.Unix_error _ -> ());
    socks := List.filter (fun x -> x != s) !socks
  in
  let alive s = List.memq s !socks in
  on_ready ();
  while not (t.shutdown && !socks = []) do
    if t.shutdown then begin
      close_listener ();
      (* stop reading from every peer; what remains is draining the
         responses already produced *)
      List.iter (fun s -> s.sconn.is_closing <- true) !socks
    end;
    (* closing connections with nothing left to send are done *)
    List.iter (fun s -> if closing s.sconn && s.unsent = "" then remove s)
      !socks;
    if not (t.shutdown && !socks = []) then begin
      let rds =
        (if !listener_open && not t.shutdown then [ lfd ] else [])
        @ List.filter_map
            (fun s -> if closing s.sconn then None else Some s.sfd)
            !socks
      in
      let wrs =
        List.filter_map
          (fun s -> if s.unsent <> "" then Some s.sfd else None)
          !socks
      in
      match Unix.select rds wrs [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | rready, wready, _ ->
          if !listener_open && List.memq lfd rready then begin
            match Unix.accept lfd with
            | fd, _ ->
                socks := { sfd = fd; sconn = accept t; unsent = "" } :: !socks
            | exception Unix.Unix_error _ -> ()
          end;
          List.iter
            (fun s ->
              if alive s && List.memq s.sfd rready then begin
                let buf = Bytes.create 65536 in
                match Unix.read s.sfd buf 0 (Bytes.length buf) with
                | 0 -> remove s
                | n ->
                    s.unsent <-
                      s.unsent ^ feed s.sconn (Bytes.sub_string buf 0 n)
                | exception
                    Unix.Unix_error
                      ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                    remove s
              end)
            !socks;
          List.iter
            (fun s ->
              if alive s && List.memq s.sfd wready && s.unsent <> "" then
                match
                  Unix.write_substring s.sfd s.unsent 0
                    (String.length s.unsent)
                with
                | n ->
                    s.unsent <-
                      String.sub s.unsent n (String.length s.unsent - n);
                    if s.unsent = "" && closing s.sconn then remove s
                | exception
                    Unix.Unix_error
                      ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                    remove s)
            !socks
    end
  done;
  close_listener ()
