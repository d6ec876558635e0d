open Relational
open Chronicle_core
open Util

let test_plan_validation () =
  check_raises_any "non-increasing thresholds" (fun () ->
      ignore (Discount.make [ (10., 0.1); (10., 0.2) ]));
  check_raises_any "decreasing rates" (fun () ->
      ignore (Discount.make [ (10., 0.2); (25., 0.1) ]));
  check_raises_any "rate over 1" (fun () -> ignore (Discount.make [ (10., 1.5) ]))

let test_rate_tiers () =
  let plan = Discount.us_phone_1995 in
  check_float "below first tier" 0. (Discount.rate plan 10.);
  check_float "in first tier" 0.10 (Discount.rate plan 10.01);
  check_float "boundary of second" 0.10 (Discount.rate plan 25.);
  check_float "second tier" 0.20 (Discount.rate plan 25.01);
  check_float "discounted" 80. (Discount.discounted plan 100.)

let call number minutes cost =
  tup [ vi number; vi minutes; vf cost ]

let call_schema =
  Schema.make
    [ ("number", Value.TInt); ("minutes", Value.TInt); ("cost", Value.TFloat) ]

let test_incremental_equals_batch () =
  let group = Group.create "g" in
  let calls = Chron.create ~group ~retention:Chron.Full ~name:"calls" call_schema in
  let def =
    Discount.view_def ~name:"expenses" ~chronicle:calls ~customer_attr:"number"
      ~amount_attr:"cost"
  in
  let view = View.create def in
  let plan = Discount.us_phone_1995 in
  let feed tuples =
    let sn = Chron.append calls tuples in
    let tagged = List.map (Chron.tag sn) tuples in
    View.apply view
      (Delta.of_zset {
        Delta.plus = Delta.eval (Sca.body def) ~sn ~batch:[ (calls, tagged) ];
        minus = [];
      })
  in
  (* customer 1 crosses both thresholds over the month *)
  feed [ call 1 10 8. ];
  check_float "no discount yet" 8.
    (Discount.current_discounted plan view ~customer:(vi 1));
  feed [ call 1 10 8. ];
  (* total 16 > 10: 10% on everything *)
  check_float "10%% tier" (16. *. 0.9)
    (Discount.current_discounted plan view ~customer:(vi 1));
  feed [ call 1 20 15. ];
  (* total 31 > 25: 20% on everything *)
  check_float "20%% tier" (31. *. 0.8)
    (Discount.current_discounted plan view ~customer:(vi 1));
  (* the always-current incremental figure equals the end-of-period batch *)
  check_float "incremental = batch at period end"
    (Discount.batch_discounted plan calls ~customer_attr:"number"
       ~amount_attr:"cost" ~customer:(vi 1))
    (Discount.current_discounted plan view ~customer:(vi 1));
  check_float "unseen customer" 0.
    (Discount.current_discounted plan view ~customer:(vi 99))

let test_incremental_needs_no_history () =
  let group = Group.create "g" in
  (* retention Discard: the batch recomputation is impossible, the
     incremental figure still works *)
  let calls = Chron.create ~group ~name:"calls" call_schema in
  let def =
    Discount.view_def ~name:"expenses" ~chronicle:calls ~customer_attr:"number"
      ~amount_attr:"cost"
  in
  let view = View.create def in
  let plan = Discount.us_phone_1995 in
  let feed tuples =
    let sn = Chron.append calls tuples in
    let tagged = List.map (Chron.tag sn) tuples in
    View.apply view
      (Delta.of_zset {
        Delta.plus = Delta.eval (Sca.body def) ~sn ~batch:[ (calls, tagged) ];
        minus = [];
      })
  in
  feed [ call 1 10 12. ];
  check_float "incremental works without history" (12. *. 0.9)
    (Discount.current_discounted plan view ~customer:(vi 1));
  check_raises_any "batch cannot run" (fun () ->
      ignore
        (Discount.batch_discounted plan calls ~customer_attr:"number"
           ~amount_attr:"cost" ~customer:(vi 1)))

let qcheck_incremental_equals_batch_streams =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (pair (int_range 1 5) (float_bound_inclusive 20.)))
  in
  qtest "incremental discounted totals = batch, for every customer, any stream"
    gen (fun calls_list ->
      let group = Group.create "g" in
      let calls =
        Chron.create ~group ~retention:Chron.Full ~name:"calls" call_schema
      in
      let def =
        Discount.view_def ~name:"expenses" ~chronicle:calls
          ~customer_attr:"number" ~amount_attr:"cost"
      in
      let view = View.create def in
      let plan = Discount.us_phone_1995 in
      List.iter
        (fun (number, cost) ->
          let tu = call number 1 cost in
          let sn = Chron.append calls [ tu ] in
          View.apply view
            (Delta.of_zset {
              Delta.plus =
                Delta.eval (Sca.body def) ~sn ~batch:[ (calls, [ Chron.tag sn tu ]) ];
              minus = [];
            }))
        calls_list;
      List.for_all
        (fun number ->
          let inc =
            Discount.current_discounted plan view ~customer:(vi number)
          in
          let bat =
            Discount.batch_discounted plan calls ~customer_attr:"number"
              ~amount_attr:"cost" ~customer:(vi number)
          in
          Float.abs (inc -. bat) < 1e-9)
        [ 1; 2; 3; 4; 5 ])

let qcheck_tiers_monotone =
  let gen = QCheck.(pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)) in
  qtest "rate is monotone in the total" gen (fun (a, b) ->
      let plan = Discount.us_phone_1995 in
      let lo = Float.min a b and hi = Float.max a b in
      Discount.rate plan lo <= Discount.rate plan hi)

let suite =
  [
    test "plan validation" test_plan_validation;
    test "tier rates (the paper's US plan)" test_rate_tiers;
    test "incremental = batch at period end (§5.3)" test_incremental_equals_batch;
    test "incremental needs no history" test_incremental_needs_no_history;
    qcheck_incremental_equals_batch_streams;
    qcheck_tiers_monotone;
  ]
