(* The temporal and query extensions of the surface language: periodic
   views over calendars, derived windowed views, ad-hoc SELECT over
   views and relations, and clock control. *)

open Chronicle_lang
open Util

let setup () =
  let session = Session.create () in
  ignore
    (Analyze.run_script session
       "CREATE CHRONICLE trades (symbol STRING, shares INT);\n\
        CREATE RELATION listing (sym STRING, exchange STRING) KEY (sym);\n\
        INSERT INTO listing VALUES ('T', 'NYSE'), ('GE', 'NYSE');");
  session

let test_parse_periodic () =
  match
    Parser.parse
      "DEFINE PERIODIC VIEW monthly AS SELECT symbol, SUM(shares) AS s FROM \
       CHRONICLE trades GROUP BY symbol CALENDAR TILING START 0 WIDTH 30 \
       EXPIRE 90;"
  with
  | [ Ast.Define_periodic
        { name = "monthly";
          calendar = { shape = `Tiling; cal_start = 0; cal_width = 30 };
          expire = Some 90;
          _ } ] ->
      ()
  | _ -> Alcotest.fail "periodic parse mismatch"

let test_parse_sliding_and_stride () =
  (match
     Parser.parse
       "DEFINE PERIODIC VIEW w AS SELECT symbol, COUNT(*) AS n FROM CHRONICLE \
        trades GROUP BY symbol CALENDAR SLIDING START 0 WIDTH 30;"
   with
  | [ Ast.Define_periodic { calendar = { shape = `Sliding; _ }; expire = None; _ } ] -> ()
  | _ -> Alcotest.fail "sliding parse mismatch");
  match
    Parser.parse
      "DEFINE PERIODIC VIEW w AS SELECT symbol, COUNT(*) AS n FROM CHRONICLE \
       trades GROUP BY symbol CALENDAR PERIODIC START 5 WIDTH 10 STRIDE 4;"
  with
  | [ Ast.Define_periodic
        { calendar = { shape = `Stride 4; cal_start = 5; cal_width = 10 }; _ } ] ->
      ()
  | _ -> Alcotest.fail "stride parse mismatch"

let test_parse_windowed_and_misc () =
  (match
     Parser.parse
       "DEFINE WINDOWED VIEW vol BUCKETS 30 WIDTH 2 AS SELECT symbol, \
        SUM(shares) AS s FROM CHRONICLE trades GROUP BY symbol;"
   with
  | [ Ast.Define_windowed { buckets = 30; bucket_width = 2; _ } ] -> ()
  | _ -> Alcotest.fail "windowed parse mismatch");
  (match Parser.parse "ADVANCE CLOCK TO 42;" with
  | [ Ast.Advance_clock 42 ] -> ()
  | _ -> Alcotest.fail "advance parse mismatch");
  match Parser.parse "SHOW PERIODIC monthly AT 3; SHOW WINDOWED vol;" with
  | [ Ast.Show_periodic { name = "monthly"; index = Some 3 };
      Ast.Show_windowed "vol" ] ->
      ()
  | _ -> Alcotest.fail "show parse mismatch"

let test_periodic_end_to_end () =
  let session = setup () in
  let results =
    Analyze.run_script session
      "DEFINE PERIODIC VIEW monthly AS SELECT symbol, SUM(shares) AS s FROM \
       CHRONICLE trades GROUP BY symbol CALENDAR TILING START 0 WIDTH 30;\n\
       APPEND INTO trades VALUES ('T', 100);\n\
       ADVANCE CLOCK TO 10;\n\
       APPEND INTO trades VALUES ('T', 50);\n\
       ADVANCE CLOCK TO 35;\n\
       APPEND INTO trades VALUES ('T', 7);\n\
       SHOW PERIODIC monthly AT 0;\n\
       SHOW PERIODIC monthly;"
  in
  match List.rev results with
  | Analyze.Rows (_, current) :: Analyze.Rows (_, month0) :: _ ->
      check_tuples "month 0 froze at 150" [ tup [ vs "T"; vi 150 ] ] month0;
      check_tuples "current month holds 7" [ tup [ vs "T"; vi 7 ] ] current
  | _ -> Alcotest.fail "unexpected results"

let test_windowed_end_to_end () =
  let session = setup () in
  let results =
    Analyze.run_script session
      "DEFINE WINDOWED VIEW vol BUCKETS 3 AS SELECT symbol, SUM(shares) AS s \
       FROM CHRONICLE trades GROUP BY symbol;\n\
       APPEND INTO trades VALUES ('T', 100);\n\
       ADVANCE CLOCK TO 1;\n\
       APPEND INTO trades VALUES ('T', 50);\n\
       ADVANCE CLOCK TO 3;\n\
       APPEND INTO trades VALUES ('T', 7);\n\
       SHOW WINDOWED vol;"
  in
  match List.rev results with
  | Analyze.Rows (_, rows) :: _ ->
      (* bucket 0 (the 100) fell out of the 3-bucket window at chronon 3 *)
      check_tuples "window sum" [ tup [ vs "T"; vi 57 ] ] rows
  | _ -> Alcotest.fail "unexpected results"

let test_adhoc_query_over_view_and_relation () =
  let session = setup () in
  let results =
    Analyze.run_script session
      "DEFINE VIEW volume AS SELECT symbol, SUM(shares) AS total FROM \
       CHRONICLE trades GROUP BY symbol;\n\
       APPEND INTO trades VALUES ('T', 100), ('GE', 10);\n\
       APPEND INTO trades VALUES ('T', 50);\n\
       SELECT symbol, total FROM volume WHERE total > 20;\n\
       SELECT exchange, SUM(total) AS exchange_total FROM volume JOIN listing \
       ON symbol = sym GROUP BY exchange;"
  in
  match List.rev results with
  | Analyze.Rows (_, by_exchange) :: Analyze.Rows (_, filtered) :: _ ->
      check_tuples "filtered view query" [ tup [ vs "T"; vi 150 ] ] filtered;
      check_tuples "join view with relation"
        [ tup [ vs "NYSE"; vi 160 ] ]
        by_exchange
  | _ -> Alcotest.fail "unexpected results"

let test_adhoc_query_unrestricted_where () =
  (* ad-hoc queries may use conjunction/negation — they are outside ℒ *)
  let session = setup () in
  let results =
    Analyze.run_script session
      "DEFINE VIEW volume AS SELECT symbol, SUM(shares) AS total FROM \
       CHRONICLE trades GROUP BY symbol;\n\
       APPEND INTO trades VALUES ('T', 100), ('GE', 10);\n\
       SELECT symbol FROM volume WHERE NOT symbol = 'GE' AND total > 0;"
  in
  match List.rev results with
  | Analyze.Rows (_, rows) :: _ -> check_tuples "negation ok" [ tup [ vs "T" ] ] rows
  | _ -> Alcotest.fail "unexpected results"

let test_query_over_relation () =
  let session = setup () in
  let results =
    Analyze.run_script session "SELECT sym FROM listing WHERE exchange = 'NYSE';"
  in
  match results with
  | [ Analyze.Rows (_, rows) ] ->
      check_tuples "relation query" [ tup [ vs "T" ]; tup [ vs "GE" ] ] rows
  | _ -> Alcotest.fail "unexpected results"

let test_errors () =
  let session = setup () in
  let expect src =
    match Analyze.run_script session src with
    | _ -> Alcotest.failf "expected error on %S" src
    | exception Analyze.Semantic_error _ -> ()
    | exception Chronicle_core.Ca.Ill_formed _ -> ()
  in
  expect "SELECT x FROM nothing;";
  expect "SHOW PERIODIC nope;";
  expect "SHOW WINDOWED nope;";
  expect
    "DEFINE WINDOWED VIEW w BUCKETS 3 AS SELECT symbol FROM CHRONICLE trades;";
  (* projection views are not derivable *)
  expect "ADVANCE CLOCK TO 5; ADVANCE CLOCK TO 1;"
  (* clock cannot go backwards *)

let test_duplicate_periodic_name () =
  let session = setup () in
  let def =
    "DEFINE PERIODIC VIEW m AS SELECT symbol, COUNT(*) AS n FROM CHRONICLE \
     trades GROUP BY symbol CALENDAR TILING START 0 WIDTH 10;"
  in
  ignore (Analyze.run_script session def);
  match Analyze.run_script session def with
  | _ -> Alcotest.fail "duplicate accepted"
  | exception Analyze.Semantic_error _ -> ()

(* A refused duplicate definition registers nothing: an appended row
   is folded by the one accepted definition only. *)
let test_refused_duplicate_registers_nothing () =
  List.iter
    (fun def ->
      let session = setup () in
      ignore (Analyze.run_script session def);
      for _ = 1 to 2 do
        match Analyze.run_script session def with
        | _ -> Alcotest.fail "duplicate accepted"
        | exception Analyze.Semantic_error _ -> ()
      done;
      Relational.Stats.reset ();
      ignore (Analyze.run_script session "APPEND INTO trades VALUES ('T', 5);");
      check_int ("one fold: " ^ def) 1 (Relational.Stats.get Relational.Stats.Agg_step))
    [
      "DEFINE WINDOWED VIEW w BUCKETS 3 AS SELECT symbol, SUM(shares) AS s \
       FROM CHRONICLE trades GROUP BY symbol;";
      "DEFINE PERIODIC VIEW m AS SELECT symbol, SUM(shares) AS s FROM \
       CHRONICLE trades GROUP BY symbol CALENDAR TILING START 0 WIDTH 10;";
    ]

let suite =
  [
    test "parse periodic definitions" test_parse_periodic;
    test "parse sliding and stride calendars" test_parse_sliding_and_stride;
    test "parse windowed views, clock, show" test_parse_windowed_and_misc;
    test "periodic views end to end" test_periodic_end_to_end;
    test "windowed views end to end" test_windowed_end_to_end;
    test "ad-hoc queries over views and relations" test_adhoc_query_over_view_and_relation;
    test "ad-hoc WHERE is unrestricted" test_adhoc_query_unrestricted_where;
    test "queries over relations" test_query_over_relation;
    test "error cases" test_errors;
    test "duplicate periodic names rejected" test_duplicate_periodic_name;
    test "a refused duplicate definition registers nothing"
      test_refused_duplicate_registers_nothing;
  ]
