open Relational
open Chronicle_core
open Chronicle_baseline
open Util
open Fixtures

let test_naive_matches_view () =
  let fx = make () in
  let def = balance_def fx in
  let view = View.create def in
  let naive = Naive.create def in
  List.iter
    (fun tuples ->
      let sn = Chron.append fx.mileage tuples in
      let tagged = List.map (Chron.tag sn) tuples in
      View.apply view
        (Delta.of_zset {
          Delta.plus = Delta.eval (Sca.body def) ~sn ~batch:[ (fx.mileage, tagged) ];
          minus = [];
        });
      Naive.refresh naive)
    [ [ mile 1 100 10. ]; [ mile 2 50 5.; mile 1 7 1. ] ];
  check_tuples "same results" (View.to_list view) (Naive.result naive);
  check_bool "lookup agrees" true
    (Naive.lookup naive [ vi 1 ] = View.lookup view [ vi 1 ]);
  check_int "refreshes" 2 (Naive.refresh_count naive)

let test_naive_scans_grow_with_chronicle () =
  let fx = make () in
  let naive = Naive.create (balance_def fx) in
  let scans_for n =
    for _ = 1 to n do
      ignore (Chron.append fx.mileage [ mile 1 1 1. ])
    done;
    let before = Stats.snapshot () in
    Naive.refresh naive;
    let after = Stats.snapshot () in
    Stats.diff_get before after Stats.Chronicle_scan
  in
  let s1 = scans_for 50 in
  let s2 = scans_for 50 in
  check_bool "scans grow linearly with |C|" true (s2 > s1 && s2 >= 100)

let test_naive_requires_retention () =
  let fx = make ~retention:Chron.Discard () in
  let naive = Naive.create (balance_def fx) in
  ignore (Chron.append fx.mileage [ mile 1 1 1. ]);
  check_raises_any "discarded history" (fun () -> Naive.refresh naive)

let test_delta_ra_on_non_ca () =
  let fx = make () in
  let def =
    Sca.define ~allow_non_ca:true ~name:"pairs"
      ~body:(Ca.CrossChron (Ca.Chronicle fx.mileage, Ca.Chronicle fx.bonus))
      (Sca.Group_agg ([ "acct" ], [ Aggregate.count_star "n" ]))
  in
  let b = Delta_ra.create def in
  let feed chron tuples =
    let sn = Chron.append chron tuples in
    Delta_ra.on_batch b ~sn ~batch:[ (chron, List.map (Chron.tag sn) tuples) ]
  in
  feed fx.mileage [ mile 1 10 1. ];
  feed fx.bonus [ mile 9 500 0. ];
  feed fx.mileage [ mile 1 20 2. ];
  (* acct 1 mileage tuples pair with every bonus tuple *)
  check_bool "cross maintained correctly" true
    (Delta_ra.lookup b [ vi 1 ] = Some (tup [ vi 1; vi 2 ]));
  (* and the cost shows: history was scanned *)
  let before = Stats.snapshot () in
  feed fx.mileage [ mile 1 30 3. ];
  let after = Stats.snapshot () in
  check_bool "per-append history scans" true
    (Stats.diff_get before after Stats.Chronicle_scan > 0)

let test_summary_fields_correct_variant () =
  let sf = Summary_fields.create_banking () in
  Summary_fields.process sf (tup [ vi 1; vs "deposit"; vf 100. ]);
  Summary_fields.process sf (tup [ vi 1; vs "withdrawal"; vf (-30.) ]);
  Summary_fields.process sf (tup [ vi 2; vs "deposit"; vf 5. ]);
  check_float "balance 1" 70. (Summary_fields.balance sf ~acct:1);
  check_float "balance 2" 5. (Summary_fields.balance sf ~acct:2);
  check_float "unknown acct" 0. (Summary_fields.balance sf ~acct:9);
  check_int "processed" 3 (Summary_fields.transactions_processed sf);
  check_int "accounts" 2 (Summary_fields.accounts_tracked sf)

let test_chemical_bank_bug_diverges () =
  (* the declarative view stays correct; the buggy procedural code
     double-posts withdrawals (the Feb 18, 1994 incident) *)
  let group = Group.create "g" in
  let txns =
    Chron.create ~group ~name:"txns"
      (Schema.make
         [ ("acct", Value.TInt); ("kind", Value.TStr); ("amount", Value.TFloat) ])
  in
  let def =
    Sca.define ~name:"balance" ~body:(Ca.Chronicle txns)
      (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "amount" "balance" ]))
  in
  let view = View.create def in
  let ok = Summary_fields.create_banking () in
  let buggy = Summary_fields.create_banking ~bug:`Chemical_bank () in
  let feed tuples =
    let sn = Chron.append txns tuples in
    View.apply view
      (Delta.of_zset {
        Delta.plus =
          Delta.eval (Sca.body def) ~sn ~batch:[ (txns, List.map (Chron.tag sn) tuples) ];
        minus = [];
      });
    List.iter (Summary_fields.process ok) tuples;
    List.iter (Summary_fields.process buggy) tuples
  in
  feed [ tup [ vi 1; vs "deposit"; vf 100. ] ];
  feed [ tup [ vi 1; vs "withdrawal"; vf (-40.) ] ];
  let view_balance =
    match View.lookup view [ vi 1 ] with
    | Some row -> Value.to_float (Tuple.get row 1)
    | None -> nan
  in
  check_float "view = correct procedural code" (Summary_fields.balance ok ~acct:1) view_balance;
  check_float "view balance" 60. view_balance;
  check_float "buggy code double-debits" 20. (Summary_fields.balance buggy ~acct:1)

let suite =
  [
    test "naive recomputation matches the view" test_naive_matches_view;
    test "naive scan cost grows with |C|" test_naive_scans_grow_with_chronicle;
    test "naive needs retained history" test_naive_requires_retention;
    test "delta-RA maintains non-CA views (expensively)" test_delta_ra_on_non_ca;
    test "procedural summary fields (correct variant)" test_summary_fields_correct_variant;
    test "Chemical-Bank bug: procedural diverges, view does not" test_chemical_bank_bug_diverges;
  ]
