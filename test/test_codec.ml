(* The one binary codec under everything the engine writes down:
   value and aggregate-state round-trips, refusal of the version-1
   (S-expression) formats with typed errors, and a totality fuzzer —
   truncated or mutated payloads of journal records and checkpoints,
   temporal readers included, raise only the typed errors of their
   module. *)

open Relational
open Chronicle_core
open Chronicle_durability
open Chronicle_lang
open Util

let roundtrip put get x =
  match Codec.decode get (Codec.encode put x) with
  | Ok y -> y
  | Error reason -> Alcotest.failf "does not decode: %s" reason

let test_value_roundtrip () =
  List.iter
    (fun v -> check_value "value roundtrip" v (roundtrip Codec.put_value Codec.value v))
    [
      Value.Null; vb true; vb false; vi (-42); vi max_int; vi min_int; vf 0.1;
      vf Float.max_float; vf (-0.0); vs "plain"; vs "with (parens) and \"quotes\"";
      vs "";
    ]

let test_state_roundtrip () =
  let schema = Schema.make [ ("x", Value.TInt) ] in
  let layout func = Aggregate.layout schema [ { Aggregate.func; arg = Some "x"; alias = "a" } ] in
  List.iter
    (fun func ->
      let l = layout func in
      let check_state what c =
        let bytes = Codec.encode (Aggregate.put_cells l) c in
        let c' = roundtrip (Aggregate.put_cells l) (Aggregate.get_cells l) c in
        let name = Printf.sprintf "%s %s" what (Aggregate.func_name func) in
        check_value name (List.hd (Aggregate.finals l c)) (List.hd (Aggregate.finals l c'));
        check_string name bytes (Codec.encode (Aggregate.put_cells l) c')
      in
      let c = Aggregate.fresh l in
      check_state "empty state" c;
      List.iter (fun v -> Aggregate.step_cells l c [| v |]) [ vi 3; vi 8; vi (-1) ];
      check_state "state roundtrip" c)
    Aggregate.[ Count; Sum; Min; Max; Avg; Var; Stddev ];
  let refused what data =
    match Codec.decode (Aggregate.get_cells (layout Aggregate.Sum)) data with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must not decode" what
  in
  refused "unknown state tag" "\x01\x09";
  refused "a COUNT state for a SUM call" "\x01\x00\x02";
  refused "two states for one call" "\x02\x01\x00\x01\x00"

(* ---- version refusal ---- *)

let mentions_v1 reason = contains reason "version 1"

let test_v1_journal_refused () =
  let st = Storage.mem () in
  let payload = "(clock ((group main) (chronon 3)))" in
  let be32 n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.to_string b
  in
  st.Storage.write "journal"
    (String.concat ""
       [ "CHRONJNL1\n"; be32 (String.length payload); be32 (Crc32.string payload);
         payload ]);
  match Durable.recover ~storage:st () with
  | _ -> Alcotest.fail "a version-1 journal must be refused"
  | exception Journal.Journal_corrupt { record = 0; reason } ->
      check_bool ("reason names the version: " ^ reason) true (mentions_v1 reason)

let test_v1_checkpoint_refused () =
  let st = Storage.mem () in
  st.Storage.write "checkpoint"
    "((chronicle-snapshot 1)\n (groups (((name main) (watermark 0) (clock 0))))\n \
     (chronicles ())\n (relations ())\n (views ()))";
  match Durable.recover ~storage:st () with
  | _ -> Alcotest.fail "a version-1 bare checkpoint must be refused"
  | exception Durable.Checkpoint_corrupt { generation = None; reason } ->
      check_bool ("reason names the version: " ^ reason) true (mentions_v1 reason)

(* A version-2 checkpoint carries no temporal readers; it is refused
   with the typed error, naming its version. *)
let test_v2_checkpoint_refused () =
  let st = Storage.mem () in
  let frame = Ckpt.encode ~generation:0 ~first_segment:0 (Snapshot.save (Db.create ())) in
  let magic = Codec.magic ~tag:"CHRONCKP" ~version:2 in
  let n = String.length magic in
  st.Storage.write (Ckpt.gen_name 0) (magic ^ String.sub frame n (String.length frame - n));
  match Durable.recover ~storage:st () with
  | _ -> Alcotest.fail "a version-2 checkpoint must be refused"
  | exception Durable.Checkpoint_corrupt { generation = Some 0; reason } ->
      check_bool ("reason names the version: " ^ reason) true
        (contains reason "version 2")

let test_sexp_save_refused () =
  match
    Durable.load_snapshot
      "((session-snapshot 1)\n (db ((chronicle-snapshot 1)))\n (periodics ()))"
  with
  | _ -> Alcotest.fail "an S-expression --save file must be refused"
  | exception Durable.Checkpoint_corrupt { generation = None; reason } ->
      check_bool ("reason names the version: " ^ reason) true (mentions_v1 reason)

(* ---- decoder totality over mutated payloads ---- *)

(* A durable run whose journal holds every record shape: catalog
   changes, a view definition, appends, a group, a relation insert, a
   clock advance, a retraction, a view drop and temporal definitions. *)
let journal_fixture =
  lazy
    (let st = Storage.mem () in
     let db = Db.create () in
     let d = Durable.attach ~storage:st db in
     ignore
       (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage"
          Fixtures.mileage_schema);
     ignore
       (Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
          ~key:[ "cust" ] ());
     ignore
       (Db.define_view db
          (Sca.define ~name:"balance"
             ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
             (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ]))));
     ignore
       (Db.define_view db
          (Sca.define ~name:"spare"
             ~body:
               (Ca.Select
                  (Predicate.("miles" >% vi 5), Ca.Chronicle (Db.chronicle db "mileage")))
             (Sca.Project_out [ "acct" ])));
     ignore (Db.append db "mileage" [ Fixtures.mile 1 100 1.; Fixtures.mile 2 7 0.5 ]);
     ignore
       (Db.append_group db
          [ [ ("mileage", [ Fixtures.mile 3 9 1. ]) ];
            [ ("mileage", [ Fixtures.mile 1 4 1. ]) ] ]);
     Db.insert_rows db "customers" [ tup [ vi 1; vs "NJ" ] ];
     Db.advance_clock db 5;
     ignore (Db.retract db "mileage" [ Fixtures.mile 1 4 1. ]);
     Db.drop_view db "spare";
     let body = Ca.Chronicle (Db.chronicle db "mileage") in
     Db.define_temporal db
       (Db.Windowed_def
          {
            name = "recent";
            view =
              Windowed_view.derive ~buckets:3
                (Sca.define ~name:"recent" ~body
                   (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ])));
          });
     Db.define_temporal db
       (Db.Rule_def
          {
            chronicle = "mileage";
            rule =
              Detector.rule ~name:"long" ~key:[ "acct" ] ~within:4
                ~pattern:(Pattern.atom "e" Predicate.("miles" >% vi 50))
                ();
          });
     Durable.detach d;
     let records, _ = Journal.scan (Option.get (st.Storage.read Durable.journal_file)) in
     ( Option.get (st.Storage.read (Ckpt.gen_name 0)),
       Array.of_list (List.map fst records) ))

let checkpoint_fixture =
  lazy
    (let db = Db.create () in
     ignore
       (Db.add_chronicle db ~retention:(Chron.Window 3) ~name:"mileage"
          Fixtures.mileage_schema);
     ignore
       (Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
          ~key:[ "cust" ] ());
     Db.insert_rows db "customers" [ tup [ vi 1; vs "NJ" ] ];
     ignore
       (Db.define_view db
          (Sca.define ~name:"by_state"
             ~body:
               (Ca.KeyJoinRel
                  ( Ca.Chronicle (Db.chronicle db "mileage"),
                    Versioned.relation (Db.relation db "customers"),
                    [ ("acct", "cust") ] ))
             (Sca.Group_agg
                ([ "state" ], [ Aggregate.avg "miles" "a"; Aggregate.max_ "miles" "hi" ]))));
     ignore (Db.append db "mileage" [ Fixtures.mile 1 100 1.; Fixtures.mile 1 7 2. ]);
     Snapshot.save db)

let temporal_fixture =
  lazy
    (let session = Session.create () in
     ignore
       (Analyze.run_script session
          "CREATE CHRONICLE trades (symbol STRING, shares INT);\n\
           DEFINE PERIODIC VIEW monthly AS SELECT symbol, SUM(shares) AS s FROM \
           CHRONICLE trades GROUP BY symbol CALENDAR TILING START 0 WIDTH 10;\n\
           DEFINE WINDOWED VIEW recent BUCKETS 3 AS SELECT symbol, SUM(shares) \
           AS s FROM CHRONICLE trades GROUP BY symbol;\n\
           DEFINE RULE burst ON trades KEY (symbol) WITHIN 4 WHEN REPEAT 2 \
           EVENT t (shares > 50);\n\
           APPEND INTO trades VALUES ('T', 100);");
     Snapshot.save (Session.db session))

(* truncate at, overwrite, or flip one bit of byte [pos mod length] *)
let mutate s (kind, pos, b) =
  let n = String.length s in
  if n = 0 then s
  else
    let pos = pos mod n in
    let set c =
      let bytes = Bytes.of_string s in
      Bytes.set bytes pos c;
      Bytes.to_string bytes
    in
    match kind with
    | 0 -> String.sub s 0 pos
    | 1 -> set (Char.chr (b land 0xff))
    | _ -> set (Char.chr (Char.code s.[pos] lxor (1 lsl (b land 7))))

let mutation_gen = QCheck.Gen.(triple (0 -- 2) (0 -- 100_000) (0 -- 255))

let print_mutation (target, victim, (kind, pos, b)) =
  Printf.sprintf "target %d (record %d), %s at %d (%d)" target victim
    (match kind with 0 -> "truncate" | 1 -> "overwrite" | _ -> "bit flip")
    pos b

(* target 0: one journal record ([victim] picks which) (CRC-valid after mutation: the journal
   checksums what it is given) recovered through Durable; 1: a
   checkpoint payload; 2: a checkpoint payload with temporal readers *)
let prop_typed_errors_only (target, victim, m) =
  let untyped e =
    QCheck.Test.fail_reportf "untyped %s escaped (%s)" (Printexc.to_string e)
      (print_mutation (target, victim, m))
  in
  (match target with
  | 0 -> (
      let checkpoint, records = Lazy.force journal_fixture in
      let victim = victim mod Array.length records in
      let st = Storage.mem () in
      st.Storage.write (Ckpt.gen_name 0) checkpoint;
      let j = Journal.open_ st Durable.journal_file in
      Array.iteri
        (fun i payload -> Journal.append j (if i = victim then mutate payload m else payload))
        records;
      match Durable.recover ~storage:st () with
      | d, _ -> Durable.detach d
      | exception (Journal.Journal_corrupt _ | Durable.Recovery_error _) -> ()
      | exception e -> untyped e)
  | _ -> (
      let fixture = if target = 1 then checkpoint_fixture else temporal_fixture in
      match Snapshot.load (mutate (Lazy.force fixture) m) with
      | _ -> ()
      | exception Snapshot.Snapshot_error _ -> ()
      | exception e -> untyped e));
  true

let suite =
  [
    test "value serialization" test_value_roundtrip;
    test "aggregate state serialization" test_state_roundtrip;
    test "a version-1 journal is refused" test_v1_journal_refused;
    test "a version-1 bare checkpoint is refused" test_v1_checkpoint_refused;
    test "a version-2 checkpoint is refused" test_v2_checkpoint_refused;
    test "an S-expression --save file is refused" test_sexp_save_refused;
    qtest ~count:600 "mutated payloads raise only typed errors"
      (QCheck.make ~print:print_mutation QCheck.Gen.(triple (0 -- 2) (0 -- 63) mutation_gen))
      prop_typed_errors_only;
  ]
