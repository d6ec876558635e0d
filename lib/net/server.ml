open Relational
open Chronicle_core
open Chronicle_lang

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

type conn = {
  server : t;
  session : Session.t;
  inbuf : Buffer.t; (* the trailing partial frame, if any *)
  out : Buffer.t; (* responses produced by the current [feed] *)
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
    is_closing = false;
  }

let closing conn = conn.is_closing

let send conn resp = Buffer.add_string conn.out (Protocol.encode_response resp)

(* Failures rendered by the one mapping the CLI prints too, so a client
   printing [Err] messages is byte-compatible with a local run *)
let err_of_exn e =
  match Protocol.error_of_exn e with
  | Some (kind, message) -> Protocol.Err { kind; message }
  | None -> Protocol.Err { kind = Protocol.E_exec; message = Printexc.to_string e }

let render result = Format.asprintf "%a" Analyze.pp_result result

(* Every ack the session's queue has resolved, in staging order: each
   request answers after the acks it resolved, as a CLI run of the same
   script prints them.  A statement's append answers as its rendered
   result, a binary APPEND's as an ACK frame. *)
let send_acks conn =
  List.iter
    (fun (ack : Session.ack) ->
      send conn
        (match ack.outcome with
        | Ok _ when ack.statement -> Protocol.Result (render (Analyze.appended ack))
        | Ok sn -> Protocol.Ack { chronicle = ack.chronicle; sn; count = ack.count }
        | Error e -> err_of_exn e))
    (Session.acks conn.session)


let exec_stmt conn stmt =
  match Analyze.exec conn.session stmt with
  | result ->
      send_acks conn;
      Option.iter (fun r -> send conn (Protocol.Result (render r))) result
  | exception e ->
      send_acks conn;
      send conn (err_of_exn e)

(* The fast path: no lexer, no parser — the payload's typed values feed
   the staging queue (and through it Db.append_group) directly.
   Validation mirrors [Analyze]'s APPEND INTO: unknown chronicle and
   ill-typed rows surface as the same semantic errors. *)
let exec_append conn chronicle rows =
  match Session.append conn.session ~statement:false chronicle (List.map Tuple.make rows) with
  | () -> send_acks conn
  | exception (Db.Unknown msg | Invalid_argument msg) ->
      send conn
        (Protocol.Err { kind = Protocol.E_semantic; message = "semantic error: " ^ msg })
  | exception e -> send conn (err_of_exn e)

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
      (* a failed group answers through its acks *)
      (try Session.flush conn.session with _ -> ());
      send_acks conn;
      send conn Protocol.Flushed
  | Protocol.Ping -> send conn Protocol.Pong
  | Protocol.Shutdown ->
      (try Session.flush conn.session with _ -> ());
      send_acks conn;
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
