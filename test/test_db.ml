open Relational
open Chronicle_core
open Util

let mileage_schema = Fixtures.mileage_schema
let mile = Fixtures.mile

let setup () =
  let db = Db.create () in
  let _c = Db.add_chronicle db ~name:"mileage" mileage_schema in
  let cust =
    Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
      ~key:[ "cust" ] ()
  in
  Versioned.insert cust (tup [ vi 1; vs "NJ" ]);
  Versioned.insert cust (tup [ vi 2; vs "NY" ]);
  db

let balance_def db =
  Sca.define ~name:"balance"
    ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
    (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "balance" ]))

let test_catalog () =
  let db = setup () in
  check_string "group" "main" (Group.name (Db.default_group db));
  check_string "chronicle" "mileage" (Chron.name (Db.chronicle db "mileage"));
  check_string "relation" "customers" (Versioned.name (Db.relation db "customers"));
  check_raises_any "unknown chronicle" (fun () -> ignore (Db.chronicle db "nope"));
  check_raises_any "duplicate chronicle" (fun () ->
      ignore (Db.add_chronicle db ~name:"mileage" mileage_schema));
  check_raises_any "unknown view" (fun () -> ignore (Db.view db "nope"))

let test_append_maintains_views () =
  let db = setup () in
  ignore (Db.define_view db (balance_def db));
  ignore (Db.append db "mileage" [ mile 1 100 10. ]);
  ignore (Db.append db "mileage" [ mile 2 200 20.; mile 1 50 5. ]);
  check_bool "acct 1" true
    (Db.summary db ~view:"balance" [ vi 1 ] = Some (tup [ vi 1; vi 150 ]));
  check_bool "acct 2" true
    (Db.summary db ~view:"balance" [ vi 2 ] = Some (tup [ vi 2; vi 200 ]));
  check_int "contents" 2 (List.length (Db.view_contents db "balance"))

let test_view_over_existing_history () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage" mileage_schema);
  ignore (Db.append db "mileage" [ mile 1 100 10. ]);
  ignore (Db.define_view db (balance_def db));
  check_bool "initialized from history" true
    (Db.summary db ~view:"balance" [ vi 1 ] = Some (tup [ vi 1; vi 100 ]));
  ignore (Db.append db "mileage" [ mile 1 11 1. ]);
  check_bool "then maintained" true
    (Db.summary db ~view:"balance" [ vi 1 ] = Some (tup [ vi 1; vi 111 ]))

let test_define_view_rejects_outside_limit () =
  let db = setup () in
  let c = Db.chronicle db "mileage" in
  let bad =
    Sca.define ~allow_non_ca:true ~name:"bad"
      ~body:(Ca.CrossChron (Ca.Chronicle c, Ca.Chronicle c))
      (Sca.Group_agg ([ "acct" ], [ Aggregate.count_star "n" ]))
  in
  check_raises_any "IM-C^k rejected" (fun () -> ignore (Db.define_view db bad));
  (* a stricter database can also refuse full CA *)
  let cust = Versioned.relation (Db.relation db "customers") in
  let full_ca =
    Sca.define ~name:"by_state"
      ~body:(Ca.ProductRel (Ca.Chronicle c, cust))
      (Sca.Group_agg ([ "state" ], [ Aggregate.count_star "n" ]))
  in
  check_raises_any "tier_limit IM-log(R) refuses CA" (fun () ->
      ignore (Db.define_view db ~tier_limit:Classify.IM_log_r full_ca))

let test_temporal_join_via_db () =
  let db = setup () in
  let c = Db.chronicle db "mileage" in
  let cust = Db.relation db "customers" in
  let def =
    Sca.define ~name:"by_state"
      ~body:(Ca.KeyJoinRel (Ca.Chronicle c, Versioned.relation cust, [ ("acct", "cust") ]))
      (Sca.Group_agg ([ "state" ], [ Aggregate.sum "miles" "m" ]))
  in
  ignore (Db.define_view db def);
  ignore (Db.append db "mileage" [ mile 1 100 10. ]);
  (* proactive move NJ -> CA, then another posting *)
  Versioned.update_where cust Predicate.("cust" =% vi 1) (fun _ -> tup [ vi 1; vs "CA" ]);
  ignore (Db.append db "mileage" [ mile 1 60 6. ]);
  check_bool "NJ kept the old posting" true
    (Db.summary db ~view:"by_state" [ vs "NJ" ] = Some (tup [ vs "NJ"; vi 100 ]));
  check_bool "CA got the new posting" true
    (Db.summary db ~view:"by_state" [ vs "CA" ] = Some (tup [ vs "CA"; vi 60 ]))

let test_future_effective_update_via_append_path () =
  let db = setup () in
  let c = Db.chronicle db "mileage" in
  let cust = Db.relation db "customers" in
  let def =
    Sca.define ~name:"by_state"
      ~body:(Ca.KeyJoinRel (Ca.Chronicle c, Versioned.relation cust, [ ("acct", "cust") ]))
      (Sca.Group_agg ([ "state" ], [ Aggregate.sum "miles" "m" ]))
  in
  ignore (Db.define_view db def);
  (* schedule the move to become effective at sn 2 *)
  Versioned.update_where cust ~effective:2 Predicate.("cust" =% vi 1) (fun _ ->
      tup [ vi 1; vs "CA" ]);
  ignore (Db.append db "mileage" [ mile 1 100 10. ]);
  (* sn 1: NJ *)
  ignore (Db.append db "mileage" [ mile 1 60 6. ]);
  (* sn 2: should see NJ still? effective=2 means visible to sn > 2 *)
  ignore (Db.append db "mileage" [ mile 1 40 4. ]);
  (* sn 3: CA *)
  check_bool "sn1+sn2 in NJ" true
    (Db.summary db ~view:"by_state" [ vs "NJ" ] = Some (tup [ vs "NJ"; vi 160 ]));
  check_bool "sn3 in CA" true
    (Db.summary db ~view:"by_state" [ vs "CA" ] = Some (tup [ vs "CA"; vi 40 ]))

(* A future-effective update that comes due in the middle of a group
   commit: the group records and folds batch by batch, so each batch
   sees exactly the relation version the same batches appended one by
   one would see. *)
let test_pending_update_mid_group () =
  let run ~grouped =
    let db = Db.create () in
    ignore (Db.add_chronicle db ~name:"mileage" mileage_schema);
    let cust =
      Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
        ~key:[ "cust" ] ()
    in
    Versioned.insert cust (tup [ vi 1; vs "NJ" ]);
    Versioned.insert cust (tup [ vi 2; vs "NY" ]);
    let c = Db.chronicle db "mileage" in
    ignore
      (Db.define_view db
         (Sca.define ~name:"by_state"
            ~body:
              (Ca.KeyJoinRel
                 (Ca.Chronicle c, Versioned.relation cust, [ ("acct", "cust") ]))
            (Sca.Group_agg ([ "state" ], [ Aggregate.sum "miles" "m" ]))));
    ignore (Db.define_view db (balance_def db));
    (* visible to sequence numbers above 2: the group below spans it *)
    Versioned.update_where cust ~effective:2 Predicate.("cust" =% vi 1)
      (fun _ -> tup [ vi 1; vs "CA" ]);
    let batches =
      [
        [ mile 1 100 10.; mile 2 1 1. ];
        [ mile 1 60 6. ];
        [ mile 1 40 4.; mile 2 2 2. ];
        [ mile 1 5 5. ];
      ]
    in
    if grouped then
      check_bool "consecutive sns" true
        (Db.append_group db (List.map (fun b -> [ ("mileage", b) ]) batches)
        = [ 1; 2; 3; 4 ])
    else List.iter (fun b -> ignore (Db.append db "mileage" b)) batches;
    check_int "update applied" 0 (Versioned.pending_count cust);
    (Db.view_contents db "by_state", Db.view_contents db "balance")
  in
  let one_by_one = run ~grouped:false in
  check_bool "NJ holds sn 1 and 2" true
    (List.exists (Tuple.equal (tup [ vs "NJ"; vi 160 ])) (fst one_by_one));
  let by_state, balance = run ~grouped:true in
  Alcotest.(check (list tuple_testable)) "by_state" (fst one_by_one) by_state;
  Alcotest.(check (list tuple_testable)) "balance" (snd one_by_one) balance

let test_multi_chronicle_batch () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"a" mileage_schema);
  ignore (Db.add_chronicle db ~name:"b" mileage_schema);
  let ca = Db.chronicle db "a" and cb = Db.chronicle db "b" in
  let def =
    Sca.define ~name:"both"
      ~body:(Ca.Union (Ca.Chronicle ca, Ca.Chronicle cb))
      (Sca.Group_agg ([ "acct" ], [ Aggregate.count_star "n" ]))
  in
  ignore (Db.define_view db def);
  let sn = Db.append_multi db [ ("a", [ mile 1 1 1. ]); ("b", [ mile 1 2 2. ]) ] in
  check_int "one sn" 1 sn;
  (* the view was maintained exactly once with the whole batch *)
  check_bool "count 2" true
    (Db.summary db ~view:"both" [ vi 1 ] = Some (tup [ vi 1; vi 2 ]));
  check_int "one batch" 1 (View.maintained_batches (Db.view db "both"))

let test_maintenance_not_doubled () =
  (* a view over two chronicles appended in one batch must fold the
     batch once, not once per chronicle *)
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"a" mileage_schema);
  ignore (Db.add_chronicle db ~name:"b" mileage_schema);
  let ca = Db.chronicle db "a" and cb = Db.chronicle db "b" in
  let left = Ca.Project ([ Seqnum.attr; "acct" ], Ca.Chronicle ca) in
  let right = Ca.Project ([ Seqnum.attr; "miles" ], Ca.Chronicle cb) in
  let def =
    Sca.define ~name:"joined" ~body:(Ca.SeqJoin (left, right))
      (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ]))
  in
  ignore (Db.define_view db def);
  ignore (Db.append_multi db [ ("a", [ mile 7 0 0. ]); ("b", [ mile 0 500 0. ]) ]);
  check_bool "joined once" true
    (Db.summary db ~view:"joined" [ vi 7 ] = Some (tup [ vi 7; vi 500 ]));
  check_int "single maintenance" 1 (View.maintained_batches (Db.view db "joined"))

let test_summary_query_cost () =
  let db = setup () in
  ignore (Db.define_view db (balance_def db));
  for i = 1 to 200 do
    ignore (Db.append db "mileage" [ mile (i mod 10 + 1) i 1. ])
  done;
  let before = Stats.snapshot () in
  ignore (Db.summary db ~view:"balance" [ vi 5 ]);
  let after = Stats.snapshot () in
  check_int "summary query reads no chronicle" 0
    (Stats.diff_get before after Stats.Chronicle_scan);
  check_bool "O(1) work" true (Stats.diff_get before after Stats.Group_lookup <= 1)

let test_classify_view () =
  let db = setup () in
  ignore (Db.define_view db (balance_def db));
  let r = Db.classify_view db "balance" in
  check_bool "SCA_1" true (r.Classify.view_im = Classify.IM_constant)

let test_drop_view () =
  let db = setup () in
  ignore (Db.define_view db (balance_def db));
  ignore (Db.append db "mileage" [ mile 1 10 1. ]);
  Db.drop_view db "balance";
  check_raises_any "gone" (fun () -> ignore (Db.view db "balance"));
  (* appends after the drop do not crash and maintain nothing *)
  ignore (Db.append db "mileage" [ mile 1 10 1. ]);
  check_raises_any "drop twice" (fun () -> Db.drop_view db "balance")

let test_multiple_groups_isolated () =
  let db = Db.create () in
  ignore (Db.add_group db "other");
  ignore (Db.add_chronicle db ~name:"a" mileage_schema);
  ignore (Db.add_chronicle db ~group:"other" ~name:"b" mileage_schema);
  let sn_a = Db.append db "a" [ mile 1 1 1. ] in
  let sn_b = Db.append db "b" [ mile 1 1 1. ] in
  (* each group issues its own sequence numbers *)
  check_int "group a sn" 1 sn_a;
  check_int "group b sn" 1 sn_b;
  check_int "watermark main" 1 (Group.watermark (Db.group db "main"));
  check_int "watermark other" 1 (Group.watermark (Db.group db "other"));
  (* clocks are independent too *)
  Db.advance_clock db ~group:"other" 50;
  check_int "main clock untouched" 0 (Group.now (Db.group db "main"));
  (* cross-group algebra is rejected at definition *)
  let bad =
    Ca.Union (Ca.Chronicle (Db.chronicle db "a"), Ca.Chronicle (Db.chronicle db "b"))
  in
  check_raises_any "cross-group view rejected" (fun () ->
      ignore
        (Db.define_view db
           (Sca.define ~name:"bad" ~body:bad
              (Sca.Group_agg ([ "acct" ], [ Aggregate.count_star "n" ])))))

(* A failing fold rolls back every view of the batch, including those
   folded before it; views fold in registration order and the batch
   stops at the failing one. *)
let test_fold_failure_rollback () =
  let db = Db.create () in
  let c = Db.add_chronicle db ~name:"c" mileage_schema in
  for i = 0 to 7 do
    ignore
      (Db.define_view db
         (Sca.define ~name:(Printf.sprintf "v%d" i) ~body:(Ca.Chronicle c)
            (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ]))))
  done;
  ignore (Db.append db "c" [ mile 1 10 1. ]);
  let contents () = List.map (fun v -> Db.view_contents db (View.name v)) (Db.views db) in
  let before = contents () in
  let probed = ref [] in
  Db.set_fold_probe db
    (Some
       (fun ~view ~sn:_ ->
         probed := view :: !probed;
         if String.equal view "v5" then failwith "injected"));
  check_raises_any "fold failure propagates" (fun () ->
      Db.append db "c" [ mile 2 20 2. ]);
  Db.set_fold_probe db None;
  Alcotest.(check (list string))
    "folds in registration order, stopping at the failure"
    [ "v0"; "v1"; "v2"; "v3"; "v4"; "v5" ] (List.rev !probed);
  check_bool "all views rolled back" true
    (List.for_all2 (List.equal Tuple.equal) before (contents ()));
  (* and the database still works *)
  ignore (Db.append db "c" [ mile 2 20 2. ]);
  check_int "post-rollback append maintained" 2 (List.length (Db.view_contents db "v0"))

(* perfbench still passes [~jobs:1]; any other degree is refused. *)
let test_jobs_only_one () =
  ignore (Db.create ~jobs:1 ());
  List.iter
    (fun jobs ->
      match Db.create ~jobs () with
      | _ -> Alcotest.failf "Db.create ~jobs:%d was accepted" jobs
      | exception Invalid_argument _ -> ())
    [ 0; 2; 4 ]

let suite =
  [
    test "catalog operations" test_catalog;
    test "appends maintain persistent views" test_append_maintains_views;
    test "views defined over existing history" test_view_over_existing_history;
    test "IM tier limit enforced at definition" test_define_view_rejects_outside_limit;
    test "temporal join through the append path" test_temporal_join_via_db;
    test "future-effective relation updates" test_future_effective_update_via_append_path;
    test "multi-chronicle batches share one sn" test_multi_chronicle_batch;
    test "multi-chronicle view maintained once per batch" test_maintenance_not_doubled;
    test "summary queries cost O(1), no chronicle access" test_summary_query_cost;
    test "classification of a registered view" test_classify_view;
    test "drop_view" test_drop_view;
    test "multiple groups are isolated" test_multiple_groups_isolated;
    test "pending update due mid-group" test_pending_update_mid_group;
    test "fold failure rolls back all views" test_fold_failure_rollback;
    test "Db.create refuses ~jobs other than 1" test_jobs_only_one;
  ]
