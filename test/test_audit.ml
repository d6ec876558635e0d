open Relational
open Chronicle_core
open Util
open Fixtures

let test_consistent () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage" mileage_schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
          (Sca.Group_agg
             ([ "acct" ], [ Aggregate.sum "miles" "m"; Aggregate.avg "fare" "f" ]))));
  for i = 1 to 30 do
    ignore (Db.append db "mileage" [ mile (i mod 4 + 1) i (float_of_int i /. 3.) ])
  done;
  (match Audit.check_view (Db.view db "balance") with
  | Audit.Consistent { rows } -> check_int "rows" 4 rows
  | v -> Alcotest.failf "expected consistent, got %a" Audit.pp_verdict v);
  check_bool "check_db all green" true
    (List.for_all (fun (_, v) -> Audit.is_consistent v) (Audit.check_db db))

let test_detects_corruption () =
  let fx = make () in
  let def = balance_def fx in
  let view = View.create def in
  let feed tuples =
    let sn = Chron.append fx.mileage tuples in
    View.apply view
      (Delta.of_zset {
        Delta.plus =
          Delta.eval (Sca.body def) ~sn
            ~batch:[ (fx.mileage, List.map (Chron.tag sn) tuples) ];
        minus = [];
      })
  in
  feed [ mile 1 100 1. ];
  feed [ mile 2 50 1. ];
  (* corrupt the materialization: replay a delta twice (a classic
     double-apply bug) *)
  View.apply view (Delta.of_zset { Delta.plus = [ Chron.tag 99 (mile 1 100 1.) ]; minus = [] });
  match Audit.check_view view with
  | Audit.Inconsistent { missing; unexpected } ->
      check_int "one row wrong each way" 1 (List.length missing);
      check_int "unexpected" 1 (List.length unexpected);
      check_tuple "the inflated row" (tup [ vi 1; vi 200 ]) (List.hd unexpected)
  | v -> Alcotest.failf "expected inconsistent, got %a" Audit.pp_verdict v

let test_unauditable_without_history () =
  let fx = make ~retention:Chron.Discard () in
  let view = View.create (balance_def fx) in
  let tuples = [ mile 1 1 1. ] in
  let sn = Chron.append fx.mileage tuples in
  View.apply view
    (Delta.of_zset {
      Delta.plus =
        Delta.eval (Sca.body (balance_def fx)) ~sn
          ~batch:[ (fx.mileage, List.map (Chron.tag sn) tuples) ];
      minus = [];
    });
  match Audit.check_view view with
  | Audit.Unauditable _ -> ()
  | v -> Alcotest.failf "expected unauditable, got %a" Audit.pp_verdict v

let test_window_overflow_becomes_unauditable () =
  let fx = make ~retention:(Chron.Window 2) () in
  let def = balance_def fx in
  let view = View.create def in
  let feed tuples =
    let sn = Chron.append fx.mileage tuples in
    View.apply view
      (Delta.of_zset {
        Delta.plus =
          Delta.eval (Sca.body def) ~sn
            ~batch:[ (fx.mileage, List.map (Chron.tag sn) tuples) ];
        minus = [];
      })
  in
  feed [ mile 1 1 1. ];
  feed [ mile 1 2 1. ];
  check_bool "auditable while the window holds everything" true
    (Audit.is_consistent (Audit.check_view view));
  feed [ mile 1 3 1. ];
  (* the first append fell out of the ring *)
  match Audit.check_view view with
  | Audit.Unauditable _ -> ()
  | v -> Alcotest.failf "expected unauditable, got %a" Audit.pp_verdict v

let suite =
  [
    test "consistent views audit green" test_consistent;
    test "double-applied deltas are caught" test_detects_corruption;
    test "discarded history is unauditable" test_unauditable_without_history;
    test "window overflow ends auditability" test_window_overflow_becomes_unauditable;
  ]
