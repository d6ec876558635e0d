open Relational
open Util

let schema =
  Schema.make
    [ ("dept", Value.TStr); ("who", Value.TStr); ("pay", Value.TInt) ]

let rows =
  [
    tup [ vs "eng"; vs "a"; vi 100 ];
    tup [ vs "eng"; vs "b"; vi 200 ];
    tup [ vs "ops"; vs "c"; vi 50 ];
    tup [ vs "eng"; vs "d"; vi 300 ];
  ]

let test_batch_groupby () =
  let out_schema, out =
    Groupby.run schema rows ~group_by:[ "dept" ]
      ~aggs:[ Aggregate.sum "pay" "total"; Aggregate.count_star "n"; Aggregate.max_ "pay" "top" ]
  in
  check_int "schema arity" 4 (Schema.arity out_schema);
  check_tuples "grouped"
    [ tup [ vs "eng"; vi 600; vi 3; vi 300 ]; tup [ vs "ops"; vi 50; vi 1; vi 50 ] ]
    out

let test_group_order_first_appearance () =
  let _, out =
    Groupby.run schema rows ~group_by:[ "dept" ] ~aggs:[ Aggregate.count_star "n" ]
  in
  Alcotest.check (Alcotest.list Alcotest.string) "order"
    [ "eng"; "ops" ]
    (List.map (fun t -> match Tuple.get t 0 with Value.Str s -> s | _ -> "?") out)

let test_empty_input () =
  let _, out = Groupby.run schema [] ~group_by:[ "dept" ] ~aggs:[ Aggregate.count_star "n" ] in
  check_tuples "no groups" [] out

let test_no_group_attrs () =
  (* grouping on [] = one global group *)
  let _, out = Groupby.run schema rows ~group_by:[] ~aggs:[ Aggregate.sum "pay" "total" ] in
  check_tuples "global aggregate" [ tup [ vi 650 ] ] out

(* The incremental side: one block of aggregate cells per group,
   stepped tuple by tuple. *)
let qcheck_incremental_equals_batch =
  let gen =
    QCheck.(list (pair (int_bound 4) (int_bound 100)))
  in
  qtest "incremental table = batch GROUPBY on random streams" gen (fun pairs ->
      let s2 = Schema.make [ ("g", Value.TInt); ("x", Value.TInt) ] in
      let tuples = List.map (fun (g, x) -> tup [ vi g; vi x ]) pairs in
      let aggs =
        [ Aggregate.sum "x" "s"; Aggregate.min_ "x" "lo"; Aggregate.avg "x" "m" ]
      in
      let layout = Aggregate.layout s2 aggs in
      let groups = Hashtbl.create 8 in
      List.iter
        (fun tu ->
          let g = Tuple.get tu 0 in
          if not (Hashtbl.mem groups g) then Hashtbl.add groups g (Aggregate.fresh layout);
          Aggregate.step_cells layout (Hashtbl.find groups g) tu)
        tuples;
      let incremental =
        Hashtbl.fold (fun g c acc -> Tuple.make (g :: Aggregate.finals layout c) :: acc) groups []
      in
      let _, batch = Groupby.run s2 tuples ~group_by:[ "g" ] ~aggs in
      List.equal Tuple.equal (sorted_tuples incremental) (sorted_tuples batch))

let suite =
  [
    test "batch GROUPBY(R, GL, AL)" test_batch_groupby;
    test "group order is first appearance" test_group_order_first_appearance;
    test "empty input" test_empty_input;
    test "grouping on no attributes" test_no_group_attrs;
    qcheck_incremental_equals_batch;
  ]
