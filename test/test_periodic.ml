open Relational
open Chronicle_core
open Util

let trade_schema =
  Schema.make [ ("symbol", Value.TStr); ("shares", Value.TInt) ]

let trade sym sh = tup [ vs sym; vi sh ]

let setup ?expire_after ~calendar () =
  let db = Db.create () in
  let c = Db.add_chronicle db ~name:"trades" trade_schema in
  let def =
    Sca.define ~name:"volume" ~body:(Ca.Chronicle c)
      (Sca.Group_agg ([ "symbol" ], [ Aggregate.sum "shares" "vol" ]))
  in
  let family = Periodic.create ?expire_after ~def ~calendar () in
  Db.define_temporal db (Db.Periodic_def { name = "p"; family });
  (db, family)

let test_tiling_periods () =
  let db, family = setup ~calendar:(Calendar.tiling ~start:0 ~width:10) () in
  (* period 0: chronons 0..9 *)
  ignore (Db.append db "trades" [ trade "T" 100 ]);
  Db.advance_clock db 5;
  ignore (Db.append db "trades" [ trade "T" 50 ]);
  check_int "one active" 1 (List.length (Periodic.active family));
  (* move into period 1 *)
  Db.advance_clock db 12;
  ignore (Db.append db "trades" [ trade "T" 7 ]);
  check_int "still one active" 1 (List.length (Periodic.active family));
  check_int "one finalized" 1 (List.length (Periodic.finalized family));
  (* period 0 total is frozen at 150; period 1 holds 7 *)
  (match Periodic.get family 0 with
  | None -> Alcotest.fail "period 0 missing"
  | Some v ->
      check_bool "period 0 frozen" true
        (View.lookup v [ vs "T" ] = Some (tup [ vs "T"; vi 150 ])));
  (match Periodic.get family 1 with
  | None -> Alcotest.fail "period 1 missing"
  | Some v ->
      check_bool "period 1 running" true
        (View.lookup v [ vs "T" ] = Some (tup [ vs "T"; vi 7 ])));
  check_bool "current is period 1" true
    (match Periodic.current family with Some (1, _) -> true | _ -> false)

let test_overlapping_windows () =
  let db, family =
    setup ~calendar:(Calendar.periodic ~start:0 ~width:10 ~stride:5) ()
  in
  Db.advance_clock db 7;
  (* chronon 7 is covered by windows [0,10) and [5,15) *)
  ignore (Db.append db "trades" [ trade "T" 100 ]);
  check_int "two active windows" 2 (List.length (Periodic.active family));
  List.iter
    (fun (_, v) ->
      check_bool "both got the trade" true
        (View.lookup v [ vs "T" ] = Some (tup [ vs "T"; vi 100 ])))
    (Periodic.active family);
  Db.advance_clock db 12;
  (* chronon 12: [0,10) closed; [5,15) and [10,20) active *)
  ignore (Db.append db "trades" [ trade "T" 1 ]);
  check_int "window slid" 2 (List.length (Periodic.active family));
  (match Periodic.get family 1 with
  | Some v ->
      check_bool "overlapping window sums both" true
        (View.lookup v [ vs "T" ] = Some (tup [ vs "T"; vi 101 ]))
  | None -> Alcotest.fail "window 1 missing")

let test_expiration_bounds_space () =
  let db, family =
    setup ~expire_after:20 ~calendar:(Calendar.tiling ~start:0 ~width:10) ()
  in
  for day = 0 to 99 do
    Db.advance_clock db day;
    ignore (Db.append db "trades" [ trade "T" 1 ])
  done;
  check_bool "live views bounded by expiration" true (Periodic.live_views family <= 4);
  check_bool "old periods expired" true (Periodic.expired_total family > 0);
  check_int "every period was opened" 10 (Periodic.opened_total family);
  check_bool "ancient period gone" true (Periodic.get family 0 = None)

let test_no_appends_no_views () =
  let _db, family = setup ~calendar:(Calendar.tiling ~start:0 ~width:10) () in
  check_int "nothing opened lazily" 0 (Periodic.opened_total family);
  check_bool "no current" true (Periodic.current family = None)

let test_interval_selection_semantics () =
  (* a period's view only sees tuples whose append chronon lies in the
     interval: equivalent to V with an extra interval selection (§5.1) *)
  let db, family = setup ~calendar:(Calendar.tiling ~start:0 ~width:10) () in
  ignore (Db.append db "trades" [ trade "A" 1 ]);
  Db.advance_clock db 15;
  ignore (Db.append db "trades" [ trade "B" 2 ]);
  (match Periodic.get family 0 with
  | Some v ->
      check_bool "period 0 has only A" true
        (View.lookup v [ vs "B" ] = None && View.lookup v [ vs "A" ] <> None)
  | None -> Alcotest.fail "period 0 missing");
  match Periodic.get family 1 with
  | Some v ->
      check_bool "period 1 has only B" true
        (View.lookup v [ vs "A" ] = None && View.lookup v [ vs "B" ] <> None)
  | None -> Alcotest.fail "period 1 missing"

let suite =
  [
    test "tiling billing periods open/close lazily" test_tiling_periods;
    test "overlapping windows all maintained" test_overlapping_windows;
    test "expiration bounds live views (§5.1)" test_expiration_bounds_space;
    test "no appends, no views" test_no_appends_no_views;
    test "per-interval selection semantics" test_interval_selection_semantics;
  ]
