open Chronicle_core
open Util

let d y m dd = { Gregorian.year = y; month = m; day = dd }

let test_epoch () =
  check_int "1970-01-01 is day 0" 0 (Gregorian.to_days (d 1970 1 1));
  check_int "epoch was a Thursday" 4 (Gregorian.day_of_week 0);
  check_bool "of_days 0" true (Gregorian.of_days 0 = d 1970 1 1)

let test_known_dates () =
  (* 2000-03-01 = 11017 days after epoch (leap century year) *)
  check_int "2000-03-01" 11017 (Gregorian.to_days (d 2000 3 1));
  check_int "2026-07-08" 20642 (Gregorian.to_days (d 2026 7 8));
  check_int "a Wednesday" 3 (Gregorian.day_of_week 20642);
  check_bool "before epoch" true (Gregorian.to_days (d 1969 12 31) = -1);
  check_bool "of_days before epoch" true (Gregorian.of_days (-1) = d 1969 12 31)

let test_leap_years () =
  check_bool "2000 leap" true (Gregorian.is_leap_year 2000);
  check_bool "1900 not leap" false (Gregorian.is_leap_year 1900);
  check_bool "2024 leap" true (Gregorian.is_leap_year 2024);
  check_bool "2023 not" false (Gregorian.is_leap_year 2023);
  check_int "feb 2024" 29 (Gregorian.days_in_month ~year:2024 ~month:2);
  check_int "feb 2023" 28 (Gregorian.days_in_month ~year:2023 ~month:2)

let test_invalid_dates () =
  check_raises_any "month 13" (fun () -> ignore (Gregorian.to_days (d 2024 13 1)));
  check_raises_any "feb 30" (fun () -> ignore (Gregorian.to_days (d 2023 2 29)))

let qcheck_roundtrip =
  qtest "to_days/of_days roundtrip over ±200 years"
    QCheck.(int_range (-73000) 73000)
    (fun days -> Gregorian.to_days (Gregorian.of_days days) = days)

let test_month_calendar () =
  (* Jan..Mar 2024: widths 31, 29 (leap), 31 *)
  let cal = Gregorian.months ~from_year:2024 ~from_month:1 ~count:3 in
  let width i =
    match Calendar.interval cal i with
    | Some iv -> Interval.width iv
    | None -> -1
  in
  check_int "jan" 31 (width 0);
  check_int "leap feb" 29 (width 1);
  check_int "mar" 31 (width 2);
  (* a mid-February chronon lands in interval 1 *)
  let feb15 = Gregorian.to_days (d 2024 2 15) in
  Alcotest.check (Alcotest.list Alcotest.int) "covering" [ 1 ]
    (Calendar.covering cal feb15);
  (* year boundary *)
  let dec = Gregorian.months ~from_year:2023 ~from_month:12 ~count:2 in
  check_bool "december to january" true
    (Calendar.interval dec 1
    = Some
        (Interval.make
           ~start:(Gregorian.month_start ~year:2024 ~month:1)
           ~stop:(Gregorian.month_start ~year:2024 ~month:2)))

let test_billing_anchor_clamps () =
  (* anchored on the 31st: February clamps to its last day *)
  let cal =
    Gregorian.billing_months ~from_year:2023 ~from_month:1 ~count:3 ~anchor_day:31
  in
  let iv i = Option.get (Calendar.interval cal i) in
  check_int "jan 31 start" (Gregorian.to_days (d 2023 1 31)) (iv 0).Interval.start;
  check_int "feb clamps to 28" (Gregorian.to_days (d 2023 2 28)) (iv 1).Interval.start;
  check_int "mar 31 stop" (Gregorian.to_days (d 2023 3 31)) (iv 1).Interval.stop;
  check_raises_any "anchor 0" (fun () ->
      ignore (Gregorian.billing_months ~from_year:2023 ~from_month:1 ~count:1 ~anchor_day:0))

let test_periodic_views_on_real_months () =
  (* end-to-end: monthly statements with true month lengths *)
  let open Chronicle_core in
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~name:"calls"
       (Relational.Schema.make [ ("number", Relational.Value.TInt); ("cost", Relational.Value.TFloat) ]));
  let def =
    Sca.define ~name:"monthly"
      ~body:(Ca.Chronicle (Db.chronicle db "calls"))
      (Sca.Group_agg ([ "number" ], [ Relational.Aggregate.sum "cost" "total" ]))
  in
  let family =
    Periodic.create ~def
      ~calendar:(Gregorian.months ~from_year:2024 ~from_month:1 ~count:3)
      ()
  in
  Db.define_temporal db (Db.Periodic_def { name = "p"; family });
  let post date cost =
    Db.advance_clock db (Gregorian.to_days date);
    ignore
      (Db.append db "calls"
         [ Relational.Tuple.make [ Relational.Value.Int 1; Relational.Value.Float cost ] ])
  in
  (* the clock starts at 0 = 1970; jump straight to 2024 *)
  post (d 2024 1 10) 5.;
  post (d 2024 1 31) 2.;
  post (d 2024 2 29) 3.;
  (* leap day lands in February's statement *)
  (match Periodic.get family 0 with
  | Some v ->
      check_bool "january total" true
        (View.lookup v [ Relational.Value.Int 1 ]
        = Some (Relational.Tuple.make [ Relational.Value.Int 1; Relational.Value.Float 7. ]))
  | None -> Alcotest.fail "january statement missing");
  match Periodic.get family 1 with
  | Some v ->
      check_bool "february total" true
        (View.lookup v [ Relational.Value.Int 1 ]
        = Some (Relational.Tuple.make [ Relational.Value.Int 1; Relational.Value.Float 3. ]))
  | None -> Alcotest.fail "february statement missing"

let suite =
  [
    test "epoch" test_epoch;
    test "known dates and weekdays" test_known_dates;
    test "leap years" test_leap_years;
    test "invalid dates rejected" test_invalid_dates;
    qcheck_roundtrip;
    test "month calendars have true widths" test_month_calendar;
    test "billing anchors clamp (Jan 31 -> Feb 28)" test_billing_anchor_clamps;
    test "periodic views over real months" test_periodic_views_on_real_months;
  ]
