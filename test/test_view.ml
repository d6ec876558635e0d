open Relational
open Chronicle_core
open Util
open Fixtures

let feed fx view batches =
  List.iter
    (fun tuples ->
      let sn = Chron.append fx.mileage tuples in
      let tagged = List.map (Chron.tag sn) tuples in
      let delta = Delta.eval (Sca.body (View.def view)) ~sn ~batch:[ (fx.mileage, tagged) ] in
      View.apply view (Delta.of_zset { Delta.plus = delta; minus = [] }))
    batches

let test_sca_definition_validation () =
  let fx = make () in
  check_raises_any "projection keeping sn rejected" (fun () ->
      ignore
        (Sca.define ~name:"bad" ~body:(Ca.Chronicle fx.mileage)
           (Sca.Project_out [ Seqnum.attr; "acct" ])));
  check_raises_any "grouping on sn rejected" (fun () ->
      ignore
        (Sca.define ~name:"bad" ~body:(Ca.Chronicle fx.mileage)
           (Sca.Group_agg ([ Seqnum.attr ], [ Aggregate.count_star "n" ]))));
  check_raises_any "ill-formed body rejected" (fun () ->
      ignore
        (Sca.define ~name:"bad"
           ~body:(Ca.Project ([ "acct" ], Ca.Chronicle fx.mileage))
           (Sca.Project_out [ "acct" ])))

let test_schema () =
  let fx = make () in
  let def = balance_def fx in
  let s = Sca.schema def in
  check_int "arity" 2 (Schema.arity s);
  check_bool "no sn" false (Schema.mem s Seqnum.attr);
  Alcotest.check (Alcotest.list Alcotest.string) "key" [ "acct" ] (Sca.group_attrs def)

let test_group_agg_maintenance () =
  let fx = make () in
  let view = View.create (balance_def fx) in
  feed fx view [ [ mile 1 100 10. ]; [ mile 2 200 20.; mile 1 50 5. ]; [ mile 1 7 1. ] ];
  check_int "two groups" 2 (View.size view);
  check_bool "acct 1 balance" true
    (View.lookup view [ vi 1 ] = Some (tup [ vi 1; vi 157 ]));
  check_bool "acct 2 balance" true
    (View.lookup view [ vi 2 ] = Some (tup [ vi 2; vi 200 ]));
  check_bool "missing group" true (View.lookup view [ vi 99 ] = None);
  check_int "batches" 3 (View.maintained_batches view)

let test_matches_batch_summarization () =
  let fx = make () in
  let def =
    Sca.define ~name:"stats" ~body:(keyjoin_body fx)
      (Sca.Group_agg
         ( [ "state" ],
           [ Aggregate.sum "miles" "m"; Aggregate.count_star "n"; Aggregate.avg "fare" "f" ] ))
  in
  let view = View.create def in
  feed fx view
    [ [ mile 1 100 10. ]; [ mile 2 200 20. ]; [ mile 3 50 5.; mile 4 10 1. ] ];
  check_tuples "incremental = batch"
    (Sca.eval_summarize def (Eval.eval (Sca.body def)))
    (View.to_list view)

let test_project_out_view () =
  let fx = make () in
  let def =
    Sca.define ~name:"accts_seen" ~body:(Ca.Chronicle fx.mileage)
      (Sca.Project_out [ "acct" ])
  in
  let view = View.create def in
  feed fx view [ [ mile 1 100 10. ]; [ mile 1 50 5. ]; [ mile 2 9 1. ] ];
  check_int "set semantics" 2 (View.size view);
  check_tuples "contents" [ tup [ vi 1 ]; tup [ vi 2 ] ] (View.to_list view);
  check_bool "member" true (View.lookup view [ vi 1 ] <> None);
  check_bool "non-member" true (View.lookup view [ vi 7 ] = None)

let test_tree_backing_ordered () =
  let fx = make () in
  let view = View.create ~index:Index.Ordered (balance_def fx) in
  feed fx view [ [ mile 3 30 3. ]; [ mile 1 10 1. ]; [ mile 2 20 2. ] ];
  Alcotest.check (Alcotest.list Alcotest.int) "key-ordered listing" [ 1; 2; 3 ]
    (List.map (fun t -> Value.to_int (Tuple.get t 0)) (View.to_list view))

let test_hash_and_tree_agree () =
  let fx = make () in
  let vh = View.create ~index:Index.Hash (balance_def fx) in
  let vt = View.create ~index:Index.Ordered (balance_def fx) in
  List.iter
    (fun tuples ->
      let sn = Chron.append fx.mileage tuples in
      let tagged = List.map (Chron.tag sn) tuples in
      let delta =
        Delta.run (View.plan vh) ~sn (Delta.appended [ (fx.mileage, tagged) ])
      in
      View.apply vh (Delta.of_zset delta);
      View.apply vt (Delta.of_zset delta))
    [ [ mile 1 100 10. ]; [ mile 5 1 1.; mile 2 2 2. ]; [ mile 1 10 1. ] ];
  check_tuples "same contents" (View.to_list vh) (View.to_list vt)

let test_maintenance_touches_no_chronicle () =
  let fx = make () in
  let view = View.create (balance_def fx) in
  feed fx view [ [ mile 1 1 1. ] ];
  let before = Stats.snapshot () in
  feed fx view [ [ mile 1 2 2. ]; [ mile 9 3 3. ] ];
  let after = Stats.snapshot () in
  check_int "Theorem 4.4: no chronicle access during maintenance" 0
    (Stats.diff_get before after Stats.Chronicle_scan)

let test_materialize () =
  let fx = make () in
  let view = View.create (balance_def fx) in
  feed fx view [ [ mile 1 100 10. ]; [ mile 2 50 5. ] ];
  let rel = View.materialize view in
  check_int "copied" 2 (Relation.cardinality rel);
  (* materialization is a snapshot: further maintenance does not touch it *)
  feed fx view [ [ mile 3 1 1. ] ];
  check_int "snapshot" 2 (Relation.cardinality rel);
  check_int "view moved on" 3 (View.size view)

let test_of_initial () =
  let fx = make () in
  (* history exists before the view is defined *)
  ignore (Chron.append fx.mileage [ mile 1 100 10. ]);
  ignore (Chron.append fx.mileage [ mile 2 200 20. ]);
  let def = balance_def fx in
  let view = View.of_initial def (Eval.eval (Sca.body def)) in
  check_int "initialized" 2 (View.size view);
  check_bool "values" true (View.lookup view [ vi 1 ] = Some (tup [ vi 1; vi 100 ]))

let qcheck_view_equals_batch =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 1 15)
        (list_of_size (Gen.int_range 1 3)
           (pair (int_range 1 6) (int_bound 100))))
  in
  qtest "Group_agg view = batch GROUPBY after any stream" gen (fun stream ->
      let fx = make () in
      let def = balance_def fx in
      let view = View.create def in
      List.iter
        (fun batch ->
          let tuples = List.map (fun (a, m) -> mile a m 1.) batch in
          let sn = Chron.append fx.mileage tuples in
          let tagged = List.map (Chron.tag sn) tuples in
          View.apply view
            (Delta.of_zset {
              Delta.plus = Delta.eval (Sca.body def) ~sn ~batch:[ (fx.mileage, tagged) ];
              minus = [];
            }))
        stream;
      let batch_result = Sca.eval_summarize def (Eval.eval (Sca.body def)) in
      List.equal Tuple.equal
        (sorted_tuples (View.to_list view))
        (sorted_tuples batch_result))

let test_dump_load_errors () =
  let fx = make () in
  let def = balance_def fx in
  let view = View.create def in
  feed fx view [ [ mile 1 100 10. ] ];
  let dumped = View.dump view in
  (* load into a non-empty view *)
  check_raises_any "non-empty target" (fun () -> View.load view dumped);
  (* shape mismatch: group dump into a projection view *)
  let proj =
    View.create
      (Sca.define ~name:"p" ~body:(Ca.Chronicle fx.mileage)
         (Sca.Project_out [ "acct" ]))
  in
  check_raises_any "shape mismatch" (fun () -> View.load proj dumped);
  (* cells of another layout: twice the calls *)
  let fresh = View.create def in
  (match dumped with
  | View.Groups_dump groups ->
      let twice (c : Aggregate.cells) =
        {
          c with
          Aggregate.ints = Array.append c.ints c.ints;
          floats = Array.append c.floats c.floats;
          vals = Array.append c.vals c.vals;
        }
      in
      let broken = View.Groups_dump (List.map (fun (k, c) -> (k, twice c)) groups) in
      check_raises_any "arity mismatch" (fun () -> View.load fresh broken)
  | View.Rows_dump _ -> Alcotest.fail "expected groups");
  (* and a clean load works *)
  View.load fresh dumped;
  check_tuples "restored" (View.to_list view) (View.to_list fresh)

(* A loaded view keeps its hidden multiplicities: retracting one of two
   equal rows leaves the row, retracting the other removes it. *)
let test_load_keeps_multiplicities () =
  let fx = make () in
  let def =
    Sca.define ~name:"p" ~body:(Ca.Chronicle fx.mileage) (Sca.Project_out [ "acct" ])
  in
  let view = View.create def in
  feed fx view [ [ mile 1 100 10. ]; [ mile 1 100 10. ] ];
  let fresh = View.create def in
  View.load fresh (View.dump view);
  check_int "multiplicity restored" 2 (View.multiplicity fresh [ vi 1 ]);
  let retract () =
    View.apply fresh (Delta.of_zset { Delta.plus = []; minus = [ Chron.tag 1 (mile 1 100 10.) ] })
  in
  retract ();
  check_tuples "one of two retracted: the row stays" [ tup [ vi 1 ] ]
    (View.to_list fresh);
  retract ();
  check_tuples "both retracted: the row goes" [] (View.to_list fresh)

let suite =
  [
    test "SCA definition validation (Def 4.3)" test_sca_definition_validation;
    test "dump/load validation" test_dump_load_errors;
    test "load keeps multiplicities" test_load_keeps_multiplicities;
    test "view schema and key" test_schema;
    test "grouped aggregation maintenance" test_group_agg_maintenance;
    test "incremental = batch summarization (with key join)" test_matches_batch_summarization;
    test "projection views use set semantics" test_project_out_view;
    test "tree backing lists in key order" test_tree_backing_ordered;
    test "hash and tree backings agree" test_hash_and_tree_agree;
    test "maintenance reads no chronicle (Thm 4.4)" test_maintenance_touches_no_chronicle;
    test "materialize snapshots" test_materialize;
    test "of_initial folds existing history" test_of_initial;
    qcheck_view_equals_batch;
  ]
