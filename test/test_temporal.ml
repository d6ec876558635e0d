open Chronicle_core
open Util

let iv a b = Interval.make ~start:a ~stop:b

let test_interval () =
  let i = iv 10 20 in
  check_int "width" 10 (Interval.width i);
  check_bool "contains start" true (Interval.contains i 10);
  check_bool "excludes stop" false (Interval.contains i 20);
  check_bool "before" true (Interval.before i 20);
  check_bool "not before" false (Interval.before i 19);
  check_bool "overlaps" true (Interval.overlaps (iv 0 15) (iv 10 20));
  check_bool "touching do not overlap" false (Interval.overlaps (iv 0 10) (iv 10 20));
  check_raises_any "empty interval" (fun () -> ignore (iv 5 5))

let test_finite_calendar () =
  let cal = Calendar.finite [ iv 10 20; iv 0 5; iv 15 30 ] in
  check_bool "finite" true (Calendar.is_finite cal);
  check_bool "sorted" true (Calendar.interval cal 0 = Some (iv 0 5));
  check_bool "count" true (Calendar.interval_count cal = Some 3);
  check_bool "past end" true (Calendar.interval cal 3 = None);
  Alcotest.check (Alcotest.list Alcotest.int) "covering 17" [ 1; 2 ]
    (Calendar.covering cal 17);
  Alcotest.check (Alcotest.list Alcotest.int) "covering gap" [] (Calendar.covering cal 7);
  check_bool "max concurrent" true (Calendar.max_concurrent cal = Some 2);
  check_raises_any "empty calendar" (fun () -> ignore (Calendar.finite []))

let test_tiling_calendar () =
  let cal = Calendar.tiling ~start:0 ~width:30 in
  check_bool "interval 0" true (Calendar.interval cal 0 = Some (iv 0 30));
  check_bool "interval 2" true (Calendar.interval cal 2 = Some (iv 60 90));
  Alcotest.check (Alcotest.list Alcotest.int) "exactly one covers" [ 1 ]
    (Calendar.covering cal 45);
  Alcotest.check (Alcotest.list Alcotest.int) "boundary belongs to the next" [ 1 ]
    (Calendar.covering cal 30);
  check_bool "one concurrent" true (Calendar.max_concurrent cal = Some 1);
  check_bool "infinite" true (Calendar.interval_count cal = None);
  Alcotest.check (Alcotest.list Alcotest.int) "before start" [] (Calendar.covering cal (-5))

let test_sliding_calendar () =
  let cal = Calendar.sliding ~start:0 ~width:30 in
  (* chronon 100 is covered by intervals starting 71..100 *)
  let cover = Calendar.covering cal 100 in
  check_int "30 covering windows" 30 (List.length cover);
  check_bool "first" true (List.hd cover = 71);
  check_bool "last" true (List.nth cover 29 = 100);
  check_bool "max concurrent 30" true (Calendar.max_concurrent cal = Some 30);
  (* early chronons are covered by fewer windows (none start before 0) *)
  check_int "chronon 5" 6 (List.length (Calendar.covering cal 5))

let test_periodic_overlap () =
  let cal = Calendar.periodic ~start:0 ~width:10 ~stride:4 in
  (* chronon 12: windows starting 4, 8, 12 → indices 1, 2, 3 *)
  Alcotest.check (Alcotest.list Alcotest.int) "covering 12" [ 1; 2; 3 ]
    (Calendar.covering cal 12);
  check_bool "ceil(10/4)=3 concurrent" true (Calendar.max_concurrent cal = Some 3)

(* brute force: scan interval indexes 0..bound and test containment *)
let qcheck_covering_matches_brute_force =
  qtest "Calendar.covering = brute-force scan"
    QCheck.(triple (int_range 1 10) (int_range 1 10) (int_bound 60))
    (fun (width, stride, chronon) ->
      let cal = Calendar.periodic ~start:0 ~width ~stride in
      let brute =
        List.filter
          (fun i ->
            match Calendar.interval cal i with
            | Some iv -> Interval.contains iv chronon
            | None -> false)
          (List.init 100 Fun.id)
      in
      Calendar.covering cal chronon = brute)

let qcheck_max_concurrent_bound =
  qtest "max_concurrent bounds every chronon's cover"
    QCheck.(triple (int_range 1 10) (int_range 1 10) (int_bound 60))
    (fun (width, stride, chronon) ->
      let cal = Calendar.periodic ~start:0 ~width ~stride in
      match Calendar.max_concurrent cal with
      | Some bound -> List.length (Calendar.covering cal chronon) <= bound
      | None -> false)

let suite =
  [
    test "intervals" test_interval;
    test "finite calendars" test_finite_calendar;
    test "tiling (billing-period) calendars" test_tiling_calendar;
    test "sliding (moving-window) calendars" test_sliding_calendar;
    test "overlapping periodic calendars" test_periodic_overlap;
    qcheck_covering_matches_brute_force;
    qcheck_max_concurrent_bound;
  ]
