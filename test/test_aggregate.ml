open Relational
open Util

(* One call over a one-column tuple: cells stepped with [values]. *)
let schema = Schema.make [ ("x", Value.TInt) ]
let layout func = Aggregate.layout schema [ { Aggregate.func; arg = Some "x"; alias = "a" } ]

let cells_of func values =
  let c = Aggregate.fresh (layout func) in
  List.iter (fun v -> Aggregate.step_cells (layout func) c [| v |]) values;
  c

let final func c = List.hd (Aggregate.finals (layout func) c)
let step_all func values = final func (cells_of func values)

let test_count () =
  check_value "count" (vi 3) (step_all Aggregate.Count [ vi 1; vi 5; vi 9 ]);
  check_value "count skips null" (vi 2)
    (step_all Aggregate.Count [ vi 1; Value.Null; vi 9 ]);
  check_value "empty count" (vi 0) (step_all Aggregate.Count [])

let test_sum () =
  check_value "int sum" (vi 15) (step_all Aggregate.Sum [ vi 4; vi 5; vi 6 ]);
  check_value "mixed sum" (vf 7.5) (step_all Aggregate.Sum [ vi 3; vf 4.5 ]);
  check_value "null skipped" (vi 5) (step_all Aggregate.Sum [ vi 5; Value.Null ]);
  check_value "empty sum is null" Value.Null (step_all Aggregate.Sum [])

let test_min_max () =
  check_value "min" (vi 2) (step_all Aggregate.Min [ vi 7; vi 2; vi 5 ]);
  check_value "max" (vi 7) (step_all Aggregate.Max [ vi 7; vi 2; vi 5 ]);
  check_value "min strings" (vs "a") (step_all Aggregate.Min [ vs "b"; vs "a" ]);
  check_value "empty min is null" Value.Null (step_all Aggregate.Min [])

let test_avg () =
  check_value "avg" (vf 5.) (step_all Aggregate.Avg [ vi 4; vi 6 ]);
  check_value "avg skips null" (vf 4.)
    (step_all Aggregate.Avg [ vi 4; Value.Null ]);
  check_value "empty avg is null" Value.Null (step_all Aggregate.Avg [])

let test_var_stddev () =
  (* population variance of 2,4,4,4,5,5,7,9 = 4; stddev = 2 *)
  let xs = List.map vi [ 2; 4; 4; 4; 5; 5; 7; 9 ] in
  check_value "var" (vf 4.) (step_all Aggregate.Var xs);
  check_value "stddev" (vf 2.) (step_all Aggregate.Stddev xs);
  check_value "single point" (vf 0.) (step_all Aggregate.Var [ vi 7 ]);
  check_value "empty var is null" Value.Null (step_all Aggregate.Var []);
  check_value "null skipped" (vf 0.)
    (step_all Aggregate.Stddev [ vi 3; Value.Null; vi 3 ])

let test_merge_against_batch () =
  (* merge of partial states over a split equals the batch over the whole *)
  let values = List.init 20 (fun i -> vi ((i * 7 mod 13) - 6)) in
  let left, right =
    List.partition (fun v -> Value.compare v (vi 0) < 0) values
  in
  List.iter
    (fun func ->
      let merged = cells_of func left in
      Aggregate.merge_cells (layout func) ~into:merged (cells_of func right);
      check_value
        (Printf.sprintf "merge %s" (Aggregate.func_name func))
        (Aggregate.batch func values) (final func merged);
      check_int "weights add" (List.length values) merged.Aggregate.weight)
    [ Aggregate.Count; Aggregate.Sum; Aggregate.Min; Aggregate.Max;
      Aggregate.Avg; Aggregate.Var; Aggregate.Stddev ]

let test_merge_with_empty () =
  List.iter
    (fun func ->
      let st = cells_of func [ vi 3; vi 8 ] in
      let right = Aggregate.copy st and left = Aggregate.fresh (layout func) in
      Aggregate.merge_cells (layout func) ~into:right (Aggregate.fresh (layout func));
      Aggregate.merge_cells (layout func) ~into:left st;
      List.iter
        (fun merged ->
          check_value
            (Printf.sprintf "merge empty %s" (Aggregate.func_name func))
            (final func st) (final func merged))
        [ left; right ])
    [ Aggregate.Count; Aggregate.Sum; Aggregate.Min; Aggregate.Max;
      Aggregate.Avg; Aggregate.Var; Aggregate.Stddev ]

let test_output_ty () =
  check_bool "count ty" true (Aggregate.output_ty Aggregate.Count None = Value.TInt);
  check_bool "avg ty" true (Aggregate.output_ty Aggregate.Avg (Some Value.TInt) = Value.TFloat);
  check_bool "stddev ty" true
    (Aggregate.output_ty Aggregate.Stddev (Some Value.TInt) = Value.TFloat);
  check_bool "sum keeps ty" true (Aggregate.output_ty Aggregate.Sum (Some Value.TFloat) = Value.TFloat);
  check_raises_any "sum needs arg" (fun () -> Aggregate.output_ty Aggregate.Sum None)

let test_func_names () =
  check_bool "roundtrip" true
    (List.for_all
       (fun f -> Aggregate.func_of_name (Aggregate.func_name f) = Some f)
       [ Aggregate.Count; Aggregate.Sum; Aggregate.Min; Aggregate.Max;
      Aggregate.Avg; Aggregate.Var; Aggregate.Stddev ]);
  check_bool "case insensitive" true (Aggregate.func_of_name "sum" = Some Aggregate.Sum);
  check_bool "unknown" true (Aggregate.func_of_name "MEDIAN" = None)

let test_result_schema () =
  let s = Schema.make [ ("g", Value.TStr); ("x", Value.TInt) ] in
  let out =
    Aggregate.result_schema s [ "g" ]
      [ Aggregate.sum "x" "total"; Aggregate.count_star "n" ]
  in
  check_int "arity" 3 (Schema.arity out);
  check_bool "total ty" true (Schema.ty out "total" = Value.TInt);
  check_bool "n ty" true (Schema.ty out "n" = Value.TInt)

let qcheck_incremental_equals_batch =
  let gen = QCheck.(list small_signed_int) in
  qtest "single-step increments agree with O(n) batch (incremental computability)"
    gen (fun ints ->
      let values = List.map vi ints in
      List.for_all
        (fun func ->
          Value.equal (step_all func values) (Aggregate.batch func values))
        [ Aggregate.Count; Aggregate.Sum; Aggregate.Min; Aggregate.Max;
      Aggregate.Avg; Aggregate.Var; Aggregate.Stddev ])

let suite =
  [
    test "COUNT" test_count;
    test "SUM" test_sum;
    test "MIN/MAX" test_min_max;
    test "AVG decomposition" test_avg;
    test "VAR/STDDEV decomposition" test_var_stddev;
    test "merge = batch over a partition" test_merge_against_batch;
    test "merge with empty state is neutral" test_merge_with_empty;
    test "output types" test_output_ty;
    test "function names" test_func_names;
    test "GROUPBY result schema" test_result_schema;
    qcheck_incremental_equals_batch;
  ]
