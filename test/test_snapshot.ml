open Relational
open Chronicle_core
open Util

let build_db () =
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~retention:(Chron.Window 3) ~name:"mileage"
       Fixtures.mileage_schema);
  let cust =
    Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
      ~key:[ "cust" ] ()
  in
  Versioned.insert cust (tup [ vi 1; vs "NJ" ]);
  Versioned.insert cust (tup [ vi 2; vs "NY" ]);
  let chron = Ca.Chronicle (Db.chronicle db "mileage") in
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance" ~body:chron
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "m"; Aggregate.avg "fare" "f";
                 Aggregate.min_ "miles" "lo" ] ))));
  ignore
    (Db.define_view db ~index:Index.Ordered
       (Sca.define ~name:"by_state"
          ~body:(Ca.KeyJoinRel (chron, Versioned.relation cust, [ ("acct", "cust") ]))
          (Sca.Group_agg ([ "state" ], [ Aggregate.count_star "n" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"accts" ~body:chron (Sca.Project_out [ "acct" ])));
  Db.advance_clock db 17;
  for i = 1 to 10 do
    ignore (Db.append db "mileage" [ Fixtures.mile (i mod 3 + 1) (i * 10) 1.5 ])
  done;
  db

let test_roundtrip_state () =
  let db = build_db () in
  let text = Snapshot.save db in
  let db' = Snapshot.load text in
  (* catalog *)
  Alcotest.check (Alcotest.list Alcotest.string) "chronicles"
    (Db.chronicle_names db) (Db.chronicle_names db');
  Alcotest.check (Alcotest.list Alcotest.string) "relations"
    (Db.relation_names db) (Db.relation_names db');
  (* group state *)
  check_int "watermark" (Group.watermark (Db.default_group db))
    (Group.watermark (Db.default_group db'));
  check_int "clock" (Group.now (Db.default_group db)) (Group.now (Db.default_group db'));
  (* chronicle counters and retained window *)
  let c = Db.chronicle db "mileage" and c' = Db.chronicle db' "mileage" in
  check_int "total" (Chron.total_appended c) (Chron.total_appended c');
  check_bool "last_sn" true (Chron.last_sn c = Chron.last_sn c');
  check_tuples "retained window" (Chron.stored c) (Chron.stored c');
  (* relation contents *)
  check_tuples "relation rows"
    (Relation.to_list (Versioned.relation (Db.relation db "customers")))
    (Relation.to_list (Versioned.relation (Db.relation db' "customers")));
  (* view contents, including aggregate internals via continued use *)
  List.iter
    (fun name ->
      check_tuples
        (Printf.sprintf "view %s" name)
        (View.to_list (Db.view db name))
        (View.to_list (Db.view db' name)))
    [ "balance"; "by_state"; "accts" ];
  check_bool "index kind preserved" true
    (View.index_kind (Db.view db' "by_state") = Index.Ordered)

let test_maintenance_continues_after_load () =
  let db = build_db () in
  let db' = Snapshot.load (Snapshot.save db) in
  (* the same append on both sides must keep them identical: proves the
     restored aggregate states (incl. AVG's decomposition) are exact *)
  ignore (Db.append db "mileage" [ Fixtures.mile 2 5 9.5 ]);
  ignore (Db.append db' "mileage" [ Fixtures.mile 2 5 9.5 ]);
  check_tuples "balance after resumed maintenance"
    (View.to_list (Db.view db "balance"))
    (View.to_list (Db.view db' "balance"));
  check_tuples "join view after resumed maintenance"
    (View.to_list (Db.view db "by_state"))
    (View.to_list (Db.view db' "by_state"));
  (* sequence numbers continue from the restored watermark *)
  check_int "watermarks equal" (Group.watermark (Db.default_group db))
    (Group.watermark (Db.default_group db'))

let test_pending_updates_refused () =
  let db = build_db () in
  let cust = Db.relation db "customers" in
  Versioned.update_where cust ~effective:1000
    Predicate.("cust" =% vi 1)
    (fun t -> t);
  check_raises_any "pending updates block snapshot" (fun () ->
      ignore (Snapshot.save db))

let test_file_roundtrip () =
  let db = build_db () in
  let path = Filename.temp_file "chronicle_snap" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save_file db path;
      let db' = Snapshot.load_file path in
      check_tuples "via file"
        (View.to_list (Db.view db "balance"))
        (View.to_list (Db.view db' "balance")))

let test_malformed_rejected () =
  check_raises_any "not a snapshot" (fun () -> ignore (Snapshot.load "(foo 1)"));
  check_raises_any "bad version" (fun () ->
      ignore (Snapshot.load "((chronicle-snapshot 99))"));
  check_raises_any "garbage" (fun () -> ignore (Snapshot.load "((("))

(* A view's aggregate states are decoded against its layout: a state
   whose tag names another function is a typed error, not a load. *)
let test_state_tag_checked () =
  let db = build_db () in
  let saved = Snapshot.save db in
  let view = List.find (fun v -> View.name v = "balance") (Db.views db) in
  let cells =
    match View.dump view with
    | View.Groups_dump ((_, c) :: _) -> c
    | View.Groups_dump [] | View.Rows_dump _ -> Alcotest.fail "expected groups"
  in
  let states = Codec.encode (Aggregate.put_cells (Sca.layout (View.def view))) cells in
  check_bool "SUM state first" true (states.[1] = '\x01');
  let rec find i = if String.sub saved i (String.length states) = states then i else find (i + 1) in
  let at = find 0 + 1 in
  let broken = String.mapi (fun i ch -> if i = at then '\x00' else ch) saved in
  match Snapshot.load broken with
  | exception Snapshot.Snapshot_error _ -> ()
  | _ -> Alcotest.fail "a COUNT state for a SUM call must not load"

let test_ca_serialization_roundtrip () =
  let fx = Fixtures.make () in
  let exprs =
    [
      Fixtures.select_body fx;
      Fixtures.keyjoin_body fx;
      Fixtures.product_body fx;
      Ca.Project
        ( [ Seqnum.attr; "acct" ],
          Ca.Union (Ca.Chronicle fx.Fixtures.mileage, Ca.Chronicle fx.Fixtures.bonus) );
      Ca.GroupBySeq
        ( [ Seqnum.attr; "acct" ],
          [ Aggregate.sum "miles" "m"; Aggregate.count_star "n" ],
          Ca.Diff (Ca.Chronicle fx.Fixtures.mileage, Ca.Chronicle fx.Fixtures.bonus) );
    ]
  in
  let resolve_c name =
    if name = "mileage" then fx.Fixtures.mileage else fx.Fixtures.bonus
  in
  let resolve_r _ = fx.Fixtures.customers in
  List.iter
    (fun e ->
      let e' =
        Snapshot.decode_with "expression"
          (Snapshot.get_ca ~chronicle:resolve_c ~relation:resolve_r)
          (Codec.encode Snapshot.put_ca e)
      in
      check_bool "same schema" true (Schema.equal (Ca.schema_of e) (Ca.schema_of e'));
      check_string "same rendering"
        (Format.asprintf "%a" Ca.pp e)
        (Format.asprintf "%a" Ca.pp e'))
    exprs

let test_predicate_roundtrip () =
  let preds =
    Predicate.
      [
        True; False;
        "a" =% vi 1;
        Or (And ("a" >% vi 0, Not ("b" =% vs "x y")), Cmp (Attr "a", Le, Attr "b"));
      ]
  in
  List.iter
    (fun p ->
      let p' =
        Snapshot.decode_with "predicate" Snapshot.get_predicate
          (Codec.encode Snapshot.put_predicate p)
      in
      check_string "predicate roundtrip"
        (Format.asprintf "%a" Predicate.pp p)
        (Format.asprintf "%a" Predicate.pp p'))
    preds

let qcheck_random_roundtrip =
  let gen =
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 30)
           (triple (int_range 1 6) (int_bound 200) (int_bound 3)))
        (* appends: (acct, miles, clock advance) *)
        bool (* ordered index? *))
  in
  qtest ~count:100 "random databases roundtrip through snapshots" gen
    (fun (stream, ordered) ->
      let db = Db.create () in
      ignore
        (Db.add_chronicle db ~retention:(Chron.Window 5) ~name:"mileage"
           Fixtures.mileage_schema);
      let index = if ordered then Index.Ordered else Index.Hash in
      ignore
        (Db.define_view db ~index
           (Sca.define ~name:"v"
              ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
              (Sca.Group_agg
                 ( [ "acct" ],
                   [ Aggregate.sum "miles" "m"; Aggregate.avg "miles" "a";
                     Aggregate.stddev "miles" "sd"; Aggregate.max_ "miles" "hi" ] ))));
      let clock = ref 0 in
      List.iter
        (fun (acct, miles, advance) ->
          clock := !clock + advance;
          Db.advance_clock db !clock;
          ignore (Db.append db "mileage" [ Fixtures.mile acct miles 1. ]))
        stream;
      let db' = Snapshot.load (Snapshot.save db) in
      (* identical contents now, and after one more identical append *)
      let agree () =
        List.equal Tuple.equal
          (sorted_tuples (View.to_list (Db.view db "v")))
          (sorted_tuples (View.to_list (Db.view db' "v")))
      in
      let ok_now = agree () in
      ignore (Db.append db "mileage" [ Fixtures.mile 1 42 1. ]);
      ignore (Db.append db' "mileage" [ Fixtures.mile 1 42 1. ]);
      ok_now && agree ()
      (* canonical form: maintenance after load keeps both databases
         byte-identical under [save] (save ∘ load is the identity on
         saved documents, even under further maintenance) *)
      && Snapshot.save db = Snapshot.save db'
      && Group.watermark (Db.default_group db)
         = Group.watermark (Db.default_group db')
      && Chron.stored (Db.chronicle db "mileage")
         = Chron.stored (Db.chronicle db' "mileage"))

(* The snapshot bytes, pinned: one Groups view and one Rows view, each
   holding an entry of hidden multiplicity 2 (an equal row appended
   twice), written with its multiplicity. *)
let test_golden_snapshot () =
  let db = Db.create () in
  let c =
    Db.add_chronicle db ~name:"c" (Schema.make [ ("a", Value.TInt) ])
  in
  ignore
    (Db.define_view db
       (Sca.define ~name:"n" ~body:(Ca.Chronicle c)
          (Sca.Group_agg ([ "a" ], [ Aggregate.count_star "k" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"r" ~body:(Ca.Chronicle c) (Sca.Project_out [ "a" ])));
  List.iter (fun a -> ignore (Db.append db "c" [ tup [ vi a ] ])) [ 1; 1; 2 ];
  check_int "hidden multiplicity" 2 (View.multiplicity (Db.view db "r") [ vi 1 ]);
  (* groups [main: watermark 3, clock 0]; chronicles [c: Discard, (a
     INT), 3 appended, last sn 3, nothing stored]; no relations; views
     [n: Groups, ([1], mult 2, COUNT 2), ([2], mult 1, COUNT 1)], [r:
     Rows, ([1], mult 2), ([2], mult 1)]; no periodic families, windowed
     views or detectors — ints are zigzag varints *)
  check_string "snapshot bytes"
    ("01046d61696e0600" ^ "010163046d61696e000101610106010600"
   ^ "00" ^ "02016e0000016301010161010543" ^ "4f554e5400016b"
   ^ "0102010202040100040102040201000201720000016300010161000201"
   ^ "02020401020402" ^ "000000")
    (hex (Snapshot.save db))

let suite =
  [
    test "snapshot bytes are pinned" test_golden_snapshot;
    test "full database roundtrip" test_roundtrip_state;
    qcheck_random_roundtrip;
    test "maintenance continues after load" test_maintenance_continues_after_load;
    test "pending updates refuse to snapshot" test_pending_updates_refused;
    test "file save/load" test_file_roundtrip;
    test "malformed snapshots rejected" test_malformed_rejected;
    test "chronicle algebra serialization" test_ca_serialization_roundtrip;
    test "predicate serialization" test_predicate_roundtrip;
    test "aggregate state tags are checked against the view" test_state_tag_checked;
  ]
