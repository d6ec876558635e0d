open Relational
open Chronicle_core
open Chronicle_lang
open Util

let setup_script =
  "CREATE CHRONICLE mileage (acct INT, miles INT, fare FLOAT);\n\
   CREATE RELATION customers (cust INT, state STRING) KEY (cust);\n\
   INSERT INTO customers VALUES (1, 'NJ'), (2, 'NY');"

let setup () =
  let session = Session.create () in
  ignore (Analyze.run_script session setup_script);
  session

let test_end_to_end_script () =
  let session = setup () in
  let db = Session.db session in
  ignore db;
  let results =
    Analyze.run_script session
      "DEFINE VIEW balance AS SELECT acct, SUM(miles) AS balance FROM \
       CHRONICLE mileage GROUP BY acct;\n\
       APPEND INTO mileage VALUES (1, 100, 10.0), (2, 200, 20.0);\n\
       APPEND INTO mileage VALUES (1, 50, 5.0);\n\
       SHOW VIEW balance;"
  in
  match results with
  | [ Analyze.Defined { view = "balance"; report };
      Analyze.Appended { sn = 1; count = 2; _ };
      Analyze.Appended { sn = 2; count = 1; _ };
      Analyze.Rows (_, rows) ] ->
      check_bool "SCA_1" true (report.Classify.view_im = Classify.IM_constant);
      check_tuples "balances" [ tup [ vi 1; vi 150 ]; tup [ vi 2; vi 200 ] ] rows
  | _ -> Alcotest.fail "unexpected script results"

let test_join_view_classified_log () =
  let session = setup () in
  let db = Session.db session in
  ignore db;
  let results =
    Analyze.run_script session
      "DEFINE VIEW by_state AS SELECT state, SUM(miles) AS total FROM \
       CHRONICLE mileage JOIN customers ON acct = cust GROUP BY state;\n\
       APPEND INTO mileage VALUES (1, 100, 10.0);\n\
       SHOW VIEW by_state;"
  in
  match results with
  | [ Analyze.Defined { report; _ }; _; Analyze.Rows (_, rows) ] ->
      check_bool "SCA_join -> IM-log(R)" true
        (report.Classify.view_im = Classify.IM_log_r);
      check_tuples "NJ total" [ tup [ vs "NJ"; vi 100 ] ] rows
  | _ -> Alcotest.fail "unexpected results"

let test_where_conjunction_becomes_nested_selects () =
  let session = setup () in
  let db = Session.db session in
  ignore db;
  let def =
    Analyze.compile_select (Session.db session) ~name:"v"
      (Parser.parse_select
         "SELECT acct, COUNT(*) AS n FROM CHRONICLE mileage WHERE miles > 0 \
          AND fare < 100.0 GROUP BY acct")
  in
  (* both conjuncts are CA-form atoms; the body must be accepted *)
  let r = Classify.sca def in
  check_bool "classified SCA_1" true (r.Classify.view_im = Classify.IM_constant);
  (* nested selects, not one AND *)
  let rec count_selects = function
    | Ca.Select (_, e) -> 1 + count_selects e
    | Ca.Chronicle _ -> 0
    | _ -> Alcotest.fail "unexpected body shape"
  in
  check_int "two nested selections" 2 (count_selects (Sca.body def))

let test_where_pushdown_below_join () =
  let session = setup () in
  let db = Session.db session in
  ignore db;
  let def =
    Analyze.compile_select (Session.db session) ~name:"v"
      (Parser.parse_select
         "SELECT state, COUNT(*) AS n FROM CHRONICLE mileage JOIN customers \
          ON acct = cust WHERE miles > 0 AND state = 'NJ' GROUP BY state")
  in
  (* miles > 0 pushes below the join; state = 'NJ' stays above *)
  (match Sca.body def with
  | Ca.Select (p, Ca.KeyJoinRel (Ca.Select (q, Ca.Chronicle _), _, _)) ->
      check_bool "above mentions state" true
        (List.mem "state" (Predicate.attrs p));
      check_bool "below mentions miles" true (List.mem "miles" (Predicate.attrs q))
  | _ -> Alcotest.fail "pushdown shape mismatch");
  check_bool "still IM-log(R)" true
    ((Classify.sca def).Classify.view_im = Classify.IM_log_r)

let test_projection_view () =
  let session = setup () in
  let db = Session.db session in
  ignore db;
  let results =
    Analyze.run_script session
      "DEFINE VIEW accts AS SELECT acct FROM CHRONICLE mileage;\n\
       APPEND INTO mileage VALUES (1, 10, 1.0);\n\
       APPEND INTO mileage VALUES (1, 20, 2.0);\n\
       SHOW VIEW accts;"
  in
  match List.rev results with
  | Analyze.Rows (_, rows) :: _ ->
      check_tuples "distinct accounts" [ tup [ vi 1 ] ] rows
  | _ -> Alcotest.fail "unexpected results"

let expect_sem_error f =
  match f () with
  | _ -> Alcotest.fail "expected a semantic/algebra error"
  | exception Analyze.Semantic_error _ -> ()
  | exception Ca.Ill_formed _ -> ()

let test_semantic_errors () =
  let session = setup () in
  let db = Session.db session in
  ignore db;
  let compile src = Analyze.compile_select (Session.db session) ~name:"v" (Parser.parse_select src) in
  expect_sem_error (fun () -> compile "SELECT acct FROM CHRONICLE nope");
  expect_sem_error (fun () ->
      compile "SELECT acct, SUM(miles) AS m FROM CHRONICLE mileage GROUP BY state");
  (* acct in SELECT but not in GROUP BY *)
  expect_sem_error (fun () ->
      compile "SELECT acct, SUM(miles) AS m FROM CHRONICLE mileage GROUP BY miles");
  (* GROUP BY without aggregates *)
  expect_sem_error (fun () ->
      compile "SELECT acct FROM CHRONICLE mileage GROUP BY acct");
  (* non-key join *)
  expect_sem_error (fun () ->
      compile
        "SELECT state, COUNT(*) AS n FROM CHRONICLE mileage JOIN customers ON \
         acct = state GROUP BY state");
  (* NOT is not Definition 4.1 form *)
  expect_sem_error (fun () ->
      compile "SELECT acct FROM CHRONICLE mileage WHERE NOT miles = 1");
  (* disjunction across a conjunction is not splittable into CA form *)
  expect_sem_error (fun () ->
      compile
        "SELECT acct FROM CHRONICLE mileage WHERE miles = 1 OR (miles = 2 AND \
         fare > 0.0)");
  (* unknown attribute in WHERE without a join *)
  expect_sem_error (fun () ->
      compile "SELECT acct FROM CHRONICLE mileage WHERE state = 'NJ'")

let test_show_classify () =
  let session = setup () in
  let db = Session.db session in
  ignore db;
  let results =
    Analyze.run_script session
      "DEFINE VIEW balance AS SELECT acct, SUM(miles) AS b FROM CHRONICLE \
       mileage GROUP BY acct;\n\
       SHOW CLASSIFY balance;"
  in
  match List.rev results with
  | Analyze.Report r :: _ ->
      check_bool "report tier" true (r.Classify.tier = Classify.Tier_ca1)
  | _ -> Alcotest.fail "expected a report"

let test_guard_extraction_from_sql () =
  (* the SQL front end produces bodies the registry can filter on *)
  let session = setup () in
  let db = Session.db session in
  ignore db;
  ignore
    (Analyze.run_script session
       "DEFINE VIEW nj AS SELECT acct, COUNT(*) AS n FROM CHRONICLE mileage \
        WHERE acct = 1 GROUP BY acct;");
  ignore (Analyze.run_script session "APPEND INTO mileage VALUES (2, 10, 1.0);");
  let reg = Db.registry (Session.db session) in
  check_bool "skipped by guard" true (Registry.skipped reg >= 1)

(* The point-query fast path ([View.lookup] when the WHERE pins every
   group-key column to a literal) renders the same bytes as the scan
   path, which the same query reaches when each key equality is written
   as a closed range instead.  Views: a grouped one, a two-column key,
   a string key through a join, and a projection; keys may be absent,
   reversed ([literal = column]) or carry an extra condition. *)
let prop_point_query_matches_scan (batches, queries) =
  let session = setup () in
  ignore
    (Analyze.run_script session
       "DEFINE VIEW balance AS SELECT acct, SUM(miles) AS total, COUNT(*) AS n \
        FROM CHRONICLE mileage GROUP BY acct;\n\
        DEFINE VIEW pairs AS SELECT acct, miles, COUNT(*) AS n FROM CHRONICLE \
        mileage GROUP BY acct, miles;\n\
        DEFINE VIEW by_state AS SELECT state, SUM(miles) AS total FROM \
        CHRONICLE mileage JOIN customers ON acct = cust GROUP BY state;\n\
        DEFINE VIEW accts AS SELECT acct, miles FROM CHRONICLE mileage;");
  List.iter
    (fun rows ->
      ignore
        (Analyze.run_script session
           ("APPEND INTO mileage VALUES "
           ^ String.concat ", "
               (List.map (fun (a, m) -> Printf.sprintf "(%d, %d, 1.0)" a m)
                  rows)
           ^ ";")))
    batches;
  let render text =
    String.concat "\n"
      (List.map
         (Format.asprintf "%a" Analyze.pp_result)
         (Analyze.run_script session text))
  in
  List.for_all
    (fun (view, (a, m), reversed, extra) ->
      let eq col lit =
        if reversed then lit ^ " = " ^ col else col ^ " = " ^ lit
      in
      let range col lit =
        Printf.sprintf "%s >= %s AND %s <= %s" col lit col lit
      in
      let a = string_of_int a and m = string_of_int m in
      let select, keys, cond =
        match view with
        | 0 -> ("acct, total, n FROM balance", [ ("acct", a) ], "n > 1")
        | 1 ->
            ("acct, miles, n FROM pairs", [ ("acct", a); ("miles", m) ], "n >= 1")
        | 2 ->
            ( "state, total FROM by_state",
              [ ("state", if a = "1" then "'NJ'" else "'NY'") ],
              "total > 10" )
        | _ ->
            ("acct, miles FROM accts", [ ("miles", m); ("acct", a) ], "miles > 5")
      in
      let query pin =
        Printf.sprintf "SELECT %s WHERE %s%s;" select
          (String.concat " AND " (List.map (fun (c, l) -> pin c l) keys))
          (if extra then " AND " ^ cond else "")
      in
      (* only the fast path looks a group up *)
      let lookups text =
        let before = Stats.snapshot () in
        let out = render text in
        (out, Stats.diff_get before (Stats.snapshot ()) Stats.Group_lookup)
      in
      let fast, fast_lookups = lookups (query eq) in
      let scan, scan_lookups = lookups (query range) in
      if fast_lookups <> 1 || scan_lookups <> 0 then
        QCheck.Test.fail_reportf
          "%s: %d lookups on the fast path, %d on the scan" (query eq)
          fast_lookups scan_lookups;
      String.equal fast scan
      || QCheck.Test.fail_reportf "%s\n%s\n≠ scan path\n%s" (query eq) fast
           scan)
    queries

let point_query_arb =
  let open QCheck in
  let acct_miles = pair (int_range 0 3) (int_range 0 6) in
  pair
    (list_of_size Gen.(1 -- 6) (list_of_size Gen.(1 -- 4) acct_miles))
    (list_of_size Gen.(1 -- 8) (quad (int_range 0 3) acct_miles bool bool))

let suite =
  [
    test "end-to-end script" test_end_to_end_script;
    test "join view classified IM-log(R)" test_join_view_classified_log;
    test "WHERE conjunctions become nested selections" test_where_conjunction_becomes_nested_selects;
    test "WHERE pushdown below the join" test_where_pushdown_below_join;
    test "projection views" test_projection_view;
    test "semantic errors" test_semantic_errors;
    test "SHOW CLASSIFY" test_show_classify;
    test "SQL-defined views are registry-filterable" test_guard_extraction_from_sql;
    qtest ~count:100 "point queries render the same bytes as the scan path"
      point_query_arb prop_point_query_matches_scan;
  ]
