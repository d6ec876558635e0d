(* The binary codec, wire framing and the server's per-connection protocol machine:
   encode∘decode = id over varints, typed values, requests, responses
   and frame streams (qcheck), plus a frame fuzzer — truncated,
   bit-flipped, oversized and unknown-opcode frames must yield a typed
   protocol error and a clean close, never a crash, a hang, or a
   mutation of the shared database. *)

open Relational
open Chronicle_core
open Chronicle_net
open Util

(* ---- round-trip helpers: compare re-encoded bytes, so Float
   payloads (NaN included) are compared by bit pattern, not by [=] *)

let enc_value v =
  let b = Buffer.create 16 in
  Codec.put_value b v;
  Buffer.contents b

let dec_value s =
  let r = Codec.reader s in
  let v = Codec.value r in
  Codec.expect_end r;
  v

(* ---- directed codec tests ---- *)

let test_varint_boundaries () =
  let round i =
    let b = Buffer.create 10 in
    Codec.put_uvarint b i;
    let s = Buffer.contents b in
    let r = Codec.reader s in
    let i' = Codec.uvarint r in
    Codec.expect_end r;
    check_bool (Printf.sprintf "uvarint %d" i) true (i = i');
    String.length s
  in
  check_int "0 is 1 byte" 1 (round 0);
  check_int "127 is 1 byte" 1 (round 127);
  check_int "128 is 2 bytes" 2 (round 128);
  ignore (round 300);
  ignore (round max_int);
  check_int "negatives are 9 bytes" 9 (round (-1));
  check_int "min_int is 9 bytes" 9 (round min_int);
  let zround i =
    let b = Buffer.create 10 in
    Codec.put_int b i;
    let r = Codec.reader (Buffer.contents b) in
    let i' = Codec.int_ r in
    Codec.expect_end r;
    check_bool (Printf.sprintf "zigzag %d" i) true (i = i');
    Buffer.length b
  in
  check_int "zigzag -1 is 1 byte" 1 (zround (-1));
  check_int "zigzag 1 is 1 byte" 1 (zround 1);
  ignore (zround max_int);
  ignore (zround min_int)

let test_value_nan () =
  let nan_bits = Int64.bits_of_float Float.nan in
  match dec_value (enc_value (Value.Float Float.nan)) with
  | Value.Float f ->
      check_bool "NaN bit pattern survives" true
        (Int64.equal nan_bits (Int64.bits_of_float f))
  | _ -> Alcotest.fail "NaN did not decode as a Float"

let test_malformed_fields () =
  let decode_err what f =
    match f () with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Decode_error")
  in
  (* over-long varint: ten continuation bytes *)
  decode_err "over-long varint" (fun () ->
      Codec.uvarint (Codec.reader (String.make 10 '\x80')));
  (* truncated varint *)
  decode_err "truncated varint" (fun () ->
      Codec.uvarint (Codec.reader "\x80"));
  (* string length past the payload *)
  decode_err "string length past end" (fun () ->
      Codec.string_ (Codec.reader "\x05ab"));
  (* unknown value tag *)
  decode_err "unknown value tag" (fun () -> Codec.value (Codec.reader "\x09"));
  (* trailing garbage after a well-formed body *)
  decode_err "trailing garbage" (fun () ->
      Protocol.decode_request ("\x04" ^ "junk"));
  (* unknown opcode *)
  decode_err "unknown opcode" (fun () -> Protocol.decode_request "\x7f");
  (* empty payload *)
  decode_err "empty payload" (fun () -> Protocol.decode_request "");
  (* declared frame length over the cap *)
  let b = Buffer.create 10 in
  Codec.put_uvarint b (Wire.max_frame + 1);
  decode_err "oversized frame" (fun () ->
      ignore (Wire.split (Buffer.contents b) ~pos:0));
  (* negative declared frame length (64th-bit games) *)
  let b = Buffer.create 10 in
  Codec.put_uvarint b (-1);
  decode_err "negative frame length" (fun () ->
      ignore (Wire.split (Buffer.contents b) ~pos:0))

(* ---- generators ---- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun i -> Value.Int i) (oneofl [ 0; 1; -1; max_int; min_int ]);
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (string_size (0 -- 12));
      ])

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Protocol.Stmt s) (string_size (0 -- 40));
        map2
          (fun c rows -> Protocol.Append { chronicle = c; rows })
          (string_size (1 -- 8))
          (list_size (0 -- 4) (list_size (0 -- 4) value_gen));
        map2
          (fun c rows -> Protocol.Retract { chronicle = c; rows })
          (string_size (1 -- 8))
          (list_size (0 -- 4) (list_size (0 -- 4) value_gen));
        return Protocol.Flush;
        return Protocol.Ping;
        return Protocol.Shutdown;
      ])

let response_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Protocol.Result s) (string_size (0 -- 40));
        map3
          (fun c sn count -> Protocol.Ack { chronicle = c; sn; count })
          (string_size (1 -- 8))
          int small_nat;
        map2
          (fun kind message -> Protocol.Err { kind; message })
          (oneofl
             Protocol.[ E_protocol; E_parse; E_semantic; E_exec ])
          (string_size (0 -- 40));
        return Protocol.Flushed;
        return Protocol.Pong;
        return Protocol.Bye;
      ])

let payload_of_frame frame =
  match Wire.split frame ~pos:0 with
  | `Frame (payload, next) when next = String.length frame -> payload
  | _ -> Alcotest.fail "encoder produced a non-frame"

(* ---- qcheck round-trips ---- *)

let qcheck_value_roundtrip =
  qtest ~count:500 "value encode∘decode = id" (QCheck.make value_gen) (fun v ->
      enc_value (dec_value (enc_value v)) = enc_value v)

let qcheck_request_roundtrip =
  qtest ~count:500 "request encode∘decode = id" (QCheck.make request_gen)
    (fun req ->
      let frame = Protocol.encode_request req in
      let req' = Protocol.decode_request (payload_of_frame frame) in
      Protocol.encode_request req' = frame)

let qcheck_response_roundtrip =
  qtest ~count:500 "response encode∘decode = id" (QCheck.make response_gen)
    (fun resp ->
      let frame = Protocol.encode_response resp in
      let resp' = Protocol.decode_response (payload_of_frame frame) in
      Protocol.encode_response resp' = frame)

let qcheck_stream_split =
  qtest ~count:200 "frame streams split back into the same frames"
    (QCheck.make QCheck.Gen.(list_size (0 -- 6) request_gen))
    (fun reqs ->
      let frames = List.map Protocol.encode_request reqs in
      let stream = String.concat "" frames in
      let rec split pos acc =
        match Wire.split stream ~pos with
        | `Need_more -> List.rev acc
        | `Frame (payload, next) -> split next (payload :: acc)
      in
      let payloads = split 0 [] in
      List.length payloads = List.length reqs
      && List.for_all2
           (fun p f -> Wire.frame p = f)
           payloads frames)

let qcheck_prefixes_need_more =
  qtest ~count:200 "every strict frame prefix is Need_more, not an error"
    (QCheck.make request_gen) (fun req ->
      let frame = Protocol.encode_request req in
      let ok = ref true in
      for k = 0 to String.length frame - 1 do
        match Wire.split (String.sub frame 0 k) ~pos:0 with
        | `Need_more -> ()
        | `Frame _ -> ok := false
        | exception _ -> ok := false
      done;
      !ok)

(* ---- the frame fuzzer, codec level: a corrupted frame either still
   decodes (the flip landed somewhere harmless or produced another
   valid encoding) or raises Decode_error — never anything else ---- *)

let flip_bit s bit =
  let b = Bytes.of_string s in
  let i = bit / 8 mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let qcheck_bitflip_codec =
  qtest ~count:1000 "bit-flipped frames: decode or Decode_error, nothing else"
    (QCheck.make QCheck.Gen.(pair request_gen (int_bound 10_000)))
    (fun (req, bit) ->
      let mutated = flip_bit (Protocol.encode_request req) bit in
      match Wire.split mutated ~pos:0 with
      | `Need_more -> true (* the flip hit the length prefix *)
      | `Frame (payload, _) -> (
          match Protocol.decode_request payload with
          | _ -> true
          | exception Codec.Decode_error _ -> true
          | exception _ -> false)
      | exception Codec.Decode_error _ -> true
      | exception _ -> false)

(* ---- the protocol machine: typed error, clean close, no db
   mutation ---- *)

let machine () =
  let db = Db.create () in
  let server = Server.create db in
  (server, Server.accept server)

let responses bytes =
  let rec go pos acc =
    match Wire.split bytes ~pos with
    | `Need_more ->
        if pos = String.length bytes then List.rev acc
        else Alcotest.fail "server produced a partial response frame"
    | `Frame (payload, next) ->
        go next (Protocol.decode_response payload :: acc)
  in
  go 0 []

let feed conn req = responses (Server.feed conn (Protocol.encode_request req))

let test_machine_stmt () =
  let _, conn = machine () in
  (match feed conn (Protocol.Stmt "CREATE CHRONICLE t (a INT);") with
  | [ Protocol.Result "created t" ] -> ()
  | _ -> Alcotest.fail "CREATE did not answer Result");
  match
    feed conn
      (Protocol.Append { chronicle = "t"; rows = [ [ Value.Int 7 ] ] })
  with
  | [ Protocol.Ack { chronicle = "t"; sn = 1; count = 1 } ] -> ()
  | _ -> Alcotest.fail "APPEND did not ack at sn 1"

let test_machine_batched_acks () =
  let _, conn = machine () in
  let results =
    feed conn
      (Protocol.Stmt "CREATE CHRONICLE t (a INT); SET BATCH 2;")
  in
  check_int "two results" 2 (List.length results);
  let ap n = Protocol.Append { chronicle = "t"; rows = [ [ Value.Int n ] ] } in
  (match feed conn (ap 1) with
  | [] -> ()
  | _ -> Alcotest.fail "first staged append must not answer yet");
  (* the second append reaches the threshold: the group commits and
     both deferred acks arrive, in watermark order *)
  (match feed conn (ap 2) with
  | [
      Protocol.Ack { sn = 1; count = 1; _ }; Protocol.Ack { sn = 2; count = 1; _ };
    ] ->
      ()
  | _ -> Alcotest.fail "threshold flush must deliver both acks in order");
  match feed conn Protocol.Flush with
  | [ Protocol.Flushed ] -> ()
  | _ -> Alcotest.fail "FLUSH with nothing staged answers just FLUSHED"

(* A group that fails mid-stream: the first fold at sn 3 raises.  Each rejected append's ERR sits in its ack's place — at
   batch 1 only the third append's, at batch 4 all four of its group's,
   answered by the request that committed the group — and the session
   keeps going. *)
let test_machine_failed_group_acks ~batch () =
  let server, conn = machine () in
  ignore (feed conn (Protocol.Stmt "CREATE CHRONICLE t (a INT);"));
  ignore
    (feed conn
       (Protocol.Stmt "DEFINE VIEW v AS SELECT a, COUNT(*) AS n FROM CHRONICLE t GROUP BY a;"));
  ignore (feed conn (Protocol.Stmt (Printf.sprintf "SET BATCH %d;" batch)));
  let db = Server.db server in
  let poisoned = ref true in
  Db.set_fold_probe db
    (Some
       (fun ~view:_ ~sn ->
         if !poisoned && sn = 3 then begin
           poisoned := false;
           failwith "third fold"
         end));
  let ap n = Protocol.Append { chronicle = "t"; rows = [ [ Value.Int n ] ] } in
  let answers = List.map (fun n -> feed conn (ap n)) [ 1; 2; 3; 4 ] in
  let shape = function
    | Protocol.Ack { sn; _ } -> Printf.sprintf "ack %d" sn
    | Protocol.Err _ -> "err"
    | _ -> "other"
  in
  let got = List.map (fun rs -> String.concat "," (List.map shape rs)) answers in
  let expected =
    if batch = 1 then [ "ack 1"; "ack 2"; "err"; "ack 3" ] else [ ""; ""; ""; "err,err,err,err" ]
  in
  Alcotest.(check (list string)) "each ERR in its ack's place" expected got;
  let after = feed conn (ap 5) in
  let flushed = feed conn Protocol.Flush in
  match List.map shape (after @ flushed) with
  | [ "ack 4"; "other" ] when batch = 1 -> ()
  | [ "ack 1"; "other" ] when batch = 4 -> ()
  | rs -> Alcotest.failf "the session keeps acking after the failure: %s" (String.concat "," rs)

let test_machine_byte_at_a_time () =
  let _, conn = machine () in
  let stream =
    Protocol.encode_request (Protocol.Stmt "CREATE CHRONICLE t (a INT);")
    ^ Protocol.encode_request Protocol.Ping
  in
  let out = Buffer.create 64 in
  String.iter
    (fun c -> Buffer.add_string out (Server.feed conn (String.make 1 c)))
    stream;
  match responses (Buffer.contents out) with
  | [ Protocol.Result "created t"; Protocol.Pong ] -> ()
  | _ -> Alcotest.fail "byte-at-a-time delivery must produce the same answers"

let test_machine_retract () =
  let _, conn = machine () in
  (match
     feed conn (Protocol.Stmt "CREATE CHRONICLE t (a INT) RETAIN FULL;")
   with
  | [ Protocol.Result "created t" ] -> ()
  | _ -> Alcotest.fail "CREATE did not answer Result");
  ignore
    (feed conn
       (Protocol.Append
          { chronicle = "t"; rows = [ [ Value.Int 7 ]; [ Value.Int 8 ] ] }));
  (* the binary opcode renders exactly like a local RETRACT FROM *)
  (match
     feed conn (Protocol.Retract { chronicle = "t"; rows = [ [ Value.Int 7 ] ] })
   with
  | [ Protocol.Result "retracted 1 row(s) from t" ] -> ()
  | _ -> Alcotest.fail "RETRACT did not answer the rendered result");
  (* retracting an occurrence that is no longer stored is a semantic
     error, and the session stays usable *)
  (match
     feed conn (Protocol.Retract { chronicle = "t"; rows = [ [ Value.Int 7 ] ] })
   with
  | [ Protocol.Err { kind = Protocol.E_semantic; _ } ] -> ()
  | _ -> Alcotest.fail "double retract must answer a semantic error");
  match feed conn Protocol.Ping with
  | [ Protocol.Pong ] -> ()
  | _ -> Alcotest.fail "a semantic error must not close the connection"

let test_machine_protocol_error_closes () =
  let server, conn = machine () in
  ignore (feed conn (Protocol.Stmt "CREATE CHRONICLE t (a INT);"));
  let before = Snapshot.save (Server.db server) in
  (* an unknown opcode in a well-formed frame *)
  (match responses (Server.feed conn (Wire.frame "\x7f")) with
  | [ Protocol.Err { kind = Protocol.E_protocol; _ } ] -> ()
  | _ -> Alcotest.fail "unknown opcode must answer a typed protocol error");
  check_bool "connection is closing" true (Server.closing conn);
  check_bool "closed connections ignore further input" true
    (Server.feed conn (Protocol.encode_request Protocol.Ping) = "");
  check_bool "the database was not touched" true
    (before = Snapshot.save (Server.db server))

let test_machine_parse_error_keeps_session () =
  let _, conn = machine () in
  (match feed conn (Protocol.Stmt "NOT A STATEMENT") with
  | [ Protocol.Err { kind = Protocol.E_parse; _ } ] -> ()
  | _ -> Alcotest.fail "garbage text must answer a parse error");
  match feed conn Protocol.Ping with
  | [ Protocol.Pong ] -> ()
  | _ -> Alcotest.fail "a parse error must not close the connection"

let qcheck_bitflip_machine =
  qtest ~count:500
    "bit-flipped frames through the machine: answer or typed close, never \
     an exception"
    (QCheck.make QCheck.Gen.(pair request_gen (int_bound 10_000)))
    (fun (req, bit) ->
      let server, conn = machine () in
      let before = Snapshot.save (Server.db server) in
      let mutated = flip_bit (Protocol.encode_request req) bit in
      match Server.feed conn mutated with
      | exception _ -> false
      | out -> (
          match responses out with
          | exception _ -> false
          | resps ->
              (* a frame that failed to decode must not have touched
                 the database and must close the connection after its
                 typed error *)
              let protocol_err =
                List.exists
                  (function
                    | Protocol.Err { kind = Protocol.E_protocol; _ } -> true
                    | _ -> false)
                  resps
              in
              (not protocol_err)
              || Server.closing conn
                 && before = Snapshot.save (Server.db server)))

let qcheck_junk_machine =
  qtest ~count:500 "random byte junk never crashes the machine"
    (QCheck.make QCheck.Gen.(string_size (0 -- 64)))
    (fun junk ->
      let _, conn = machine () in
      match Server.feed conn junk with
      | exception _ -> false
      | out -> ( match responses out with _ -> true | exception _ -> false))

(* ---- the client-side statement splitter ---- *)

let test_split_statements () =
  let check_chunks msg src expected =
    Alcotest.(check (list string)) msg expected (Client.split_statements src)
  in
  check_chunks "plain" "a; b;" [ "a;"; " b;" ];
  check_chunks "semicolon in string" "x 'a;b';" [ "x 'a;b';" ];
  check_chunks "escaped quote" "x 'it''s; fine';" [ "x 'it''s; fine';" ];
  check_chunks "comment hides ;" "a -- no ; here\n;" [ "a -- no ; here\n;" ];
  check_chunks "blank tail dropped" "a; \n-- tail\n" [ "a;" ];
  check_chunks "non-blank tail kept" "a; b" [ "a;"; " b" ];
  (* the invariant fast-append relies on: chunks parse 1:1 *)
  let src =
    "CREATE CHRONICLE t (a INT, s STRING);\n\
     APPEND INTO t VALUES (1, 'semi;colon'); -- trailing ; comment\n\
     SHOW VIEW v;"
  in
  let chunks = Client.split_statements src in
  check_int "one chunk per statement" 3 (List.length chunks);
  List.iter
    (fun chunk ->
      check_int "chunk parses to exactly one statement" 1
        (List.length (Chronicle_lang.Parser.parse chunk)))
    chunks

(* Temporal readers live in the database's catalog: a windowed view
   defined on one connection is visible on another, whose retraction
   from the chronicle it reads is refused and changes nothing. *)
let test_machine_shared_catalog () =
  let server, c1 = machine () in
  let c2 = Server.accept server in
  List.iter
    (fun s -> ignore (feed c1 (Protocol.Stmt s)))
    [
      "CREATE CHRONICLE trades (sym STRING, px INT) RETAIN FULL;";
      "APPEND INTO trades VALUES ('a', 1);";
      "DEFINE WINDOWED VIEW w3 BUCKETS 3 AS SELECT sym, SUM(px) AS s FROM \
       CHRONICLE trades GROUP BY sym;";
      "APPEND INTO trades VALUES ('a', 2);";
    ];
  let show conn = feed conn (Protocol.Stmt "SHOW WINDOWED w3;") in
  let before = show c1 in
  (match before with
  | [ Protocol.Result r ] -> check_bool ("w3 folded the append: " ^ r) true (contains r "s=2")
  | _ -> Alcotest.fail "SHOW WINDOWED did not answer Result");
  check_bool "connection 2 sees w3" true (show c2 = before);
  let refused req =
    match feed c2 req with
    | [ Protocol.Err { message; _ } ] ->
        check_bool ("typed refusal: " ^ message) true
          (contains message "windowed view w3 reads it and takes appends only")
    | _ -> Alcotest.fail "connection 2's retraction was not refused"
  in
  refused (Protocol.Stmt "RETRACT FROM trades VALUES ('a', 2);");
  refused (Protocol.Retract { chronicle = "trades"; rows = [ [ Value.Str "a"; Value.Int 2 ] ] });
  check_bool "w3 unchanged on connection 1" true (show c1 = before);
  check_bool "w3 unchanged on connection 2" true (show c2 = before)

let suite =
  [
    test "varint boundaries" test_varint_boundaries;
    test "NaN float round-trip" test_value_nan;
    test "malformed fields are typed errors" test_malformed_fields;
    qcheck_value_roundtrip;
    qcheck_request_roundtrip;
    qcheck_response_roundtrip;
    qcheck_stream_split;
    qcheck_prefixes_need_more;
    qcheck_bitflip_codec;
    test "machine: statements and the append fast path" test_machine_stmt;
    test "machine: batched acks resolve in watermark order"
      test_machine_batched_acks;
    test "machine: a failed group's ERRs in ack order, batch 1"
      (test_machine_failed_group_acks ~batch:1);
    test "machine: a failed group's ERRs in ack order, batch 4"
      (test_machine_failed_group_acks ~batch:4);
    test "machine: byte-at-a-time delivery" test_machine_byte_at_a_time;
    test "machine: the retract opcode" test_machine_retract;
    test "machine: protocol errors close cleanly" test_machine_protocol_error_closes;
    test "machine: parse errors keep the session" test_machine_parse_error_keeps_session;
    test "machine: connections share temporal readers" test_machine_shared_catalog;
    qcheck_bitflip_machine;
    qcheck_junk_machine;
    test "client statement splitter" test_split_statements;
  ]
