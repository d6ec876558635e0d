open Relational
open Chronicle_core
open Util

let trade_schema =
  Schema.make [ ("symbol", Value.TStr); ("shares", Value.TInt) ]

let trade sym sh = tup [ vs sym; vi sh ]

let setup ~buckets =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"trades" trade_schema);
  let def =
    Sca.define ~name:"vol" ~body:(Ca.Chronicle (Db.chronicle db "trades"))
      (Sca.Group_agg
         ( [ "symbol" ],
           [ Aggregate.sum "shares" "shares_w"; Aggregate.count_star "trades_w" ] ))
  in
  let wv = Windowed_view.derive ~buckets def in
  Db.define_temporal db (Db.Windowed_def { name = "w"; view = wv });
  (db, def, wv)

let test_rejects_projection_views () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"trades" trade_schema);
  let def =
    Sca.define ~name:"syms" ~body:(Ca.Chronicle (Db.chronicle db "trades"))
      (Sca.Project_out [ "symbol" ])
  in
  check_raises_any "projection not derivable" (fun () ->
      ignore (Windowed_view.derive ~buckets:3 def))

let test_window_rolls () =
  let db, _, wv = setup ~buckets:3 in
  (* day 0..2: 100 shares each; day 3 retires day 0 *)
  for day = 0 to 2 do
    Db.advance_clock db day;
    ignore (Db.append db "trades" [ trade "T" 100 ])
  done;
  check_bool "3 days in window" true
    (Windowed_view.lookup wv [ vs "T" ] = Some (tup [ vs "T"; vi 300; vi 3 ]));
  Db.advance_clock db 3;
  ignore (Db.append db "trades" [ trade "T" 50 ]);
  check_bool "day 0 retired" true
    (Windowed_view.lookup wv [ vs "T" ] = Some (tup [ vs "T"; vi 250; vi 3 ]));
  check_bool "unknown key" true (Windowed_view.lookup wv [ vs "ZZ" ] = None);
  check_int "one group" 1 (Windowed_view.group_count wv)

let test_idle_group_decays () =
  let db, _, wv = setup ~buckets:3 in
  ignore (Db.append db "trades" [ trade "T" 100 ]);
  (* the clock moves past the whole window with no further T trades *)
  Db.advance_clock db 10;
  ignore (Db.append db "trades" [ trade "IBM" 5 ]);
  check_bool "idle group reports empty window" true
    (Windowed_view.lookup wv [ vs "T" ] = Some (tup [ vs "T"; Value.Null; vi 0 ]))

let test_agrees_with_periodic_family () =
  (* the derived cyclic buffers must answer exactly like the generic
     sliding-calendar periodic family's current view, day after day *)
  let buckets = 5 in
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"trades" trade_schema);
  let def =
    Sca.define ~name:"vol" ~body:(Ca.Chronicle (Db.chronicle db "trades"))
      (Sca.Group_agg ([ "symbol" ], [ Aggregate.sum "shares" "s" ]))
  in
  let wv = Windowed_view.derive ~buckets def in
  Db.define_temporal db (Db.Windowed_def { name = "w"; view = wv });
  let family =
    Periodic.create ~expire_after:2 ~def
      ~calendar:(Calendar.periodic ~start:(-(buckets - 1)) ~width:buckets ~stride:1)
      ()
  in
  Db.define_temporal db (Db.Periodic_def { name = "p"; family });
  let rng = Chronicle_workload.Rng.create 31 in
  for day = 0 to 19 do
    Db.advance_clock db day;
    for _ = 1 to 5 do
      let sym = if Chronicle_workload.Rng.bool rng then "T" else "GE" in
      ignore
        (Db.append db "trades"
           [ trade sym (10 * (1 + Chronicle_workload.Rng.int rng 9)) ])
    done;
    let from_family sym =
      match Periodic.current family with
      | None -> None
      | Some (_, v) -> (
          match View.lookup v [ vs sym ] with
          | Some row -> Some (Tuple.get row 1)
          | None -> None)
    in
    let from_window sym =
      match Windowed_view.lookup wv [ vs sym ] with
      | Some row ->
          (* an idle-for-a-window group answers Null; the family answers
             None — both mean "no activity in the window" *)
          let v = Tuple.get row 1 in
          if Value.is_null v then None else Some v
      | None -> None
    in
    List.iter
      (fun sym ->
        let a = from_family sym and b = from_window sym in
        let show = function
          | None -> "none"
          | Some v -> Value.to_string v
        in
        if not (Option.equal Value.equal a b) then
          Alcotest.failf "day %d %s: family %s vs window %s" day sym (show a)
            (show b))
      [ "T"; "GE" ]
  done

let qcheck_agrees_with_family =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_bound 1) (int_range 1 9) (int_bound 2)))
  in
  qtest ~count:100 "derived window = periodic family on random streams" gen
    (fun steps ->
      let buckets = 4 in
      let db = Db.create () in
      ignore (Db.add_chronicle db ~name:"trades" trade_schema);
      let def =
        Sca.define ~name:"vol" ~body:(Ca.Chronicle (Db.chronicle db "trades"))
          (Sca.Group_agg ([ "symbol" ], [ Aggregate.sum "shares" "s" ]))
      in
      let wv = Windowed_view.derive ~buckets def in
      Db.define_temporal db (Db.Windowed_def { name = "w"; view = wv });
      let family =
        Periodic.create ~expire_after:2 ~def
          ~calendar:
            (Calendar.periodic ~start:(-(buckets - 1)) ~width:buckets ~stride:1)
          ()
      in
      Db.define_temporal db (Db.Periodic_def { name = "p"; family });
      let clock = ref 0 in
      List.for_all
        (fun (sym, shares, advance) ->
          clock := !clock + advance;
          Db.advance_clock db !clock;
          let sym = if sym = 0 then "T" else "GE" in
          ignore (Db.append db "trades" [ trade sym (10 * shares) ]);
          List.for_all
            (fun probe ->
              let family_ans =
                match Periodic.current family with
                | None -> None
                | Some (_, v) ->
                    Option.map (fun row -> Tuple.get row 1) (View.lookup v [ vs probe ])
              in
              let window_ans =
                match Windowed_view.lookup wv [ vs probe ] with
                | None -> None
                | Some row ->
                    let v = Tuple.get row 1 in
                    if Value.is_null v then None else Some v
              in
              Option.equal Value.equal family_ans window_ans)
            [ "T"; "GE" ])
        steps)

let test_multi_aggregate_row () =
  let db, def, wv = setup ~buckets:4 in
  ignore def;
  ignore (Db.append db "trades" [ trade "T" 100 ]);
  ignore (Db.append db "trades" [ trade "T" 50 ]);
  match Windowed_view.lookup wv [ vs "T" ] with
  | Some row ->
      check_value "sum" (vi 150) (Tuple.get row 1);
      check_value "count" (vi 2) (Tuple.get row 2)
  | None -> Alcotest.fail "group missing"

let test_to_list_sorted () =
  let db, _, wv = setup ~buckets:3 in
  ignore (Db.append db "trades" [ trade "T" 1 ]);
  ignore (Db.append db "trades" [ trade "GE" 2 ]);
  check_int "rows" 2 (List.length (Windowed_view.to_list wv))

let suite =
  [
    test "projection views are not derivable" test_rejects_projection_views;
    test "buckets roll as the clock advances" test_window_rolls;
    test "idle groups decay to the empty window" test_idle_group_decays;
    test "agrees with the generic periodic family (§5.1 derivation)" test_agrees_with_periodic_family;
    qcheck_agrees_with_family;
    test "multiple aggregates per row" test_multi_aggregate_row;
    test "listing" test_to_list_sorted;
  ]
