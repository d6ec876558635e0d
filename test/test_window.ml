open Relational
open Chronicle_core
open Util

(* Reference: brute-force recomputation over the raw (chronon, value)
   stream for the window [now - buckets*width + 1 bucket alignment]. *)
let brute_force func ~buckets ~width ~start events now =
  let head = (now - start) / width in
  let first_bucket = head - buckets + 1 in
  let in_window (c, _) =
    let b = (c - start) / width in
    b >= first_bucket && b <= head
  in
  Aggregate.batch func (List.map snd (List.filter in_window events))

(* Windows of one call over a one-column tuple. *)
let window func ~buckets ~bucket_width =
  let schema = Schema.make [ ("x", Value.TInt) ] in
  Window.create
    ~layout:(Aggregate.layout schema [ { Aggregate.func; arg = Some "x"; alias = "a" } ])
    ~buckets ~bucket_width ~start:0

let add w chronon v = Window.add w chronon [| v |]
let total w = List.hd (Window.total w)

let test_sum_basic () =
  let w = window Aggregate.Sum ~buckets:3 ~bucket_width:10 in
  add w 0 (vi 5);
  add w 5 (vi 5);
  check_value "one bucket" (vi 10) (total w);
  add w 12 (vi 7);
  check_value "two buckets" (vi 17) (total w);
  add w 25 (vi 1);
  check_value "three buckets" (vi 18) (total w);
  (* bucket 0 (chronons 0..9) retires when bucket 3 opens *)
  add w 31 (vi 100);
  check_value "oldest retired" (vi 108) (total w)

let test_time_must_advance () =
  let w = window Aggregate.Sum ~buckets:3 ~bucket_width:10 in
  add w 15 (vi 1);
  check_raises_any "backwards" (fun () -> add w 5 (vi 1))

let test_skipping_far_ahead_clears () =
  let w = window Aggregate.Sum ~buckets:3 ~bucket_width:10 in
  add w 0 (vi 50);
  (* jump far past the window: everything retires *)
  Window.advance w 1000;
  check_value "empty again" Value.Null (total w);
  add w 1001 (vi 3);
  check_value "fresh value" (vi 3) (total w)

let test_min_max_recombination () =
  let w = window Aggregate.Max ~buckets:2 ~bucket_width:10 in
  add w 1 (vi 100);
  add w 11 (vi 7);
  check_value "max across buckets" (vi 100) (total w);
  (* when the 100-bucket retires, the max falls to 7 — this is why
     MIN/MAX need per-bucket states, not a single running value *)
  Window.advance w 21;
  check_value "max after retirement" (vi 7) (total w)

let test_bucket_totals () =
  let w = window Aggregate.Count ~buckets:3 ~bucket_width:10 in
  add w 5 (vi 1);
  add w 15 (vi 1);
  add w 16 (vi 1);
  Alcotest.check (Alcotest.list value_testable) "per-bucket"
    [ Value.Null; vi 1; vi 2 ]
    (List.map List.hd (Window.bucket_totals w));
  check_int "rolls" 1 (Window.rolls w)

let test_thirty_day_stock_example () =
  (* §5.1: daily view of shares sold in the preceding 30 days *)
  let w = window Aggregate.Sum ~buckets:30 ~bucket_width:1 in
  for day = 0 to 99 do
    add w day (vi 100)
  done;
  check_value "last 30 days" (vi 3000) (total w)

let qcheck_window_equals_brute_force =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (pair (int_bound 5) (int_range 1 100)))
  in
  qtest "cyclic buffer = brute-force recomputation (random streams)" gen
    (fun steps ->
      List.for_all
        (fun func ->
          let w = window func ~buckets:4 ~bucket_width:5 in
          let events = ref [] in
          let clock = ref 0 in
          List.for_all
            (fun (gap, v) ->
              clock := !clock + gap;
              add w !clock (vi v);
              events := (!clock, vi v) :: !events;
              let expected =
                brute_force func ~buckets:4 ~width:5 ~start:0 !events !clock
              in
              Value.equal (total w) expected)
            steps)
        Aggregate.[ Sum; Count; Min; Max; Avg; Var; Stddev ])

let suite =
  [
    test "moving SUM across buckets" test_sum_basic;
    test "chronons must be non-decreasing" test_time_must_advance;
    test "skipping far ahead clears all buckets" test_skipping_far_ahead_clears;
    test "MIN/MAX need per-bucket recombination" test_min_max_recombination;
    test "per-bucket inspection and roll count" test_bucket_totals;
    test "the 30-day stock example (§5.1)" test_thirty_day_stock_example;
    qcheck_window_equals_brute_force;
  ]
