open Relational

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

let err_kind_name = function
  | E_protocol -> "protocol"
  | E_parse -> "parse"
  | E_semantic -> "semantic"
  | E_exec -> "exec"

let error_of_exn = function
  | Chronicle_lang.Lexer.Lex_error { message; line; column } ->
      Some (E_parse, Printf.sprintf "lex error at %d:%d: %s" line column message)
  | Chronicle_lang.Parser.Parse_error { message; line } ->
      Some (E_parse, Printf.sprintf "parse error at line %d: %s" line message)
  | Chronicle_lang.Analyze.Semantic_error message ->
      Some (E_semantic, "semantic error: " ^ message)
  | Chronicle_core.Ca.Ill_formed message ->
      Some (E_semantic, "algebra error: " ^ message)
  | Chronicle_core.Db.Unknown message ->
      Some (E_semantic, "catalog error: " ^ message)
  | Chronicle_core.Db.Read_only message -> Some (E_exec, message)
  | _ -> None

let err_kind_byte = function
  | E_protocol -> 0
  | E_parse -> 1
  | E_semantic -> 2
  | E_exec -> 3

let err_kind_of_byte = function
  | 0 -> E_protocol
  | 1 -> E_parse
  | 2 -> E_semantic
  | 3 -> E_exec
  | b -> Codec.(raise (Decode_error (Printf.sprintf "unknown error kind %#x" b)))

let with_payload op fill =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr op);
  fill buf;
  Wire.frame (Buffer.contents buf)

let put_rows = Codec.put_list (Codec.put_list Codec.put_value)

(* a lying row or column count is rejected before any allocation *)
let get_rows = Codec.list (Codec.list Codec.value)

let encode_request = function
  | Stmt text -> with_payload 0x01 (fun buf -> Codec.put_string buf text)
  | Append { chronicle; rows } ->
      with_payload 0x02 (fun buf ->
          Codec.put_string buf chronicle;
          put_rows buf rows)
  | Flush -> with_payload 0x03 (fun _ -> ())
  | Ping -> with_payload 0x04 (fun _ -> ())
  | Shutdown -> with_payload 0x05 (fun _ -> ())
  | Retract { chronicle; rows } ->
      with_payload 0x06 (fun buf ->
          Codec.put_string buf chronicle;
          put_rows buf rows)

let encode_response = function
  | Result text -> with_payload 0x81 (fun buf -> Codec.put_string buf text)
  | Ack { chronicle; sn; count } ->
      with_payload 0x82 (fun buf ->
          Codec.put_string buf chronicle;
          Codec.put_uvarint buf sn;
          Codec.put_uvarint buf count)
  | Err { kind; message } ->
      with_payload 0x83 (fun buf ->
          Buffer.add_char buf (Char.chr (err_kind_byte kind));
          Codec.put_string buf message)
  | Flushed -> with_payload 0x84 (fun _ -> ())
  | Pong -> with_payload 0x85 (fun _ -> ())
  | Bye -> with_payload 0x86 (fun _ -> ())

let finish r v =
  Codec.expect_end r;
  v

let decode_request payload =
  let r = Codec.reader payload in
  match Codec.byte r with
  | 0x01 -> finish r (Stmt (Codec.string_ r))
  | 0x02 ->
      let chronicle = Codec.string_ r in
      finish r (Append { chronicle; rows = get_rows r })
  | 0x03 -> finish r Flush
  | 0x04 -> finish r Ping
  | 0x05 -> finish r Shutdown
  | 0x06 ->
      let chronicle = Codec.string_ r in
      finish r (Retract { chronicle; rows = get_rows r })
  | op -> Codec.(raise (Decode_error (Printf.sprintf "unknown request opcode %#x" op)))

let decode_response payload =
  let r = Codec.reader payload in
  match Codec.byte r with
  | 0x81 -> finish r (Result (Codec.string_ r))
  | 0x82 ->
      let chronicle = Codec.string_ r in
      let sn = Codec.uvarint r in
      let count = Codec.uvarint r in
      finish r (Ack { chronicle; sn; count })
  | 0x83 ->
      let kind = err_kind_of_byte (Codec.byte r) in
      finish r (Err { kind; message = Codec.string_ r })
  | 0x84 -> finish r Flushed
  | 0x85 -> finish r Pong
  | 0x86 -> finish r Bye
  | op ->
      Codec.(raise (Decode_error (Printf.sprintf "unknown response opcode %#x" op)))
