(* Bechamel micro-benchmarks for the hot operators behind the IM
   complexity classes: index probes, aggregate steps, and the full
   Δ-pipeline of a fixed persistent view. *)

open Relational
open Chronicle_core
module Kit = Measure
open Bechamel
open Toolkit

module Int_tree = Btree.Make (Int)

let btree_find_test =
  let t = Int_tree.create () in
  for i = 0 to 99_999 do
    ignore (Int_tree.insert t i i)
  done;
  let k = ref 0 in
  Test.make ~name:"btree.find (100k keys)"
    (Staged.stage (fun () ->
         k := (!k + 7919) mod 100_000;
         ignore (Int_tree.find t !k)))

let btree_insert_test =
  let t = Int_tree.create () in
  let k = ref 0 in
  Test.make ~name:"btree.insert (growing)"
    (Staged.stage (fun () ->
         incr k;
         ignore (Int_tree.insert t !k !k)))

let hash_probe_test =
  let ix = Index.create Index.Hash ~attrs:[ "k" ] in
  for i = 0 to 99_999 do
    Index.add ix [ Value.Int i ] i
  done;
  let k = ref 0 in
  Test.make ~name:"hash index probe (100k keys)"
    (Staged.stage (fun () ->
         k := (!k + 7919) mod 100_000;
         ignore (Index.find ix [ Value.Int !k ])))

let agg_step_test =
  let layout =
    Aggregate.layout (Schema.make [ ("x", Value.TInt) ]) [ Aggregate.sum "x" "s" ]
  in
  let cells = Aggregate.fresh layout and tu = [| Value.Int 3 |] in
  Test.make ~name:"aggregate SUM step"
    (Staged.stage (fun () -> Aggregate.step_cells layout cells tu))

let delta_pipeline_test =
  let group = Group.create "g" in
  let schema = Schema.make [ ("acct", Value.TInt); ("x", Value.TInt) ] in
  let chron = Chron.create ~group ~name:"c" schema in
  let rel =
    Relation.create ~name:"r"
      ~schema:(Schema.make [ ("cust", Value.TInt); ("seg", Value.TStr) ])
      ~key:[ "cust" ] ()
  in
  for i = 1 to 1_000 do
    ignore (Relation.insert rel (Tuple.make [ Value.Int i; Value.Str "seg" ]))
  done;
  let def =
    Sca.define ~name:"v"
      ~body:
        (Ca.Select
           ( Predicate.("x" >% Value.Int 0),
             Ca.KeyJoinRel (Ca.Chronicle chron, rel, [ ("acct", "cust") ]) ))
      (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "x" "s" ]))
  in
  let view = View.create def in
  let i = ref 0 in
  Test.make ~name:"full append+maintain (SCA_join view)"
    (Staged.stage (fun () ->
         incr i;
         let tu = Tuple.make [ Value.Int ((!i mod 1_000) + 1); Value.Int !i ] in
         let sn = Chron.append chron [ tu ] in
         View.apply view
           (Delta.of_zset {
             Delta.plus =
               Delta.eval (Sca.body def) ~sn ~batch:[ (chron, [ Chron.tag sn tu ]) ];
             minus = [];
           })))

let tests =
  Test.make_grouped ~name:"micro" ~fmt:"%s %s"
    [
      btree_find_test; btree_insert_test; hash_probe_test; agg_step_test;
      delta_pipeline_test;
    ]

let run () =
  Kit.section "MICRO: operator costs (bechamel)"
    "OLS estimate of nanoseconds per run against the monotonic clock.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Printf.sprintf "%.1f" est
          | Some [] | None -> "n/a"
        in
        [ name; ns ] :: acc)
      results []
    |> List.sort compare
  in
  Kit.print_table ~title:"MICRO  ns/run (OLS, monotonic clock)"
    ~header:[ "operation"; "ns/run" ] rows
