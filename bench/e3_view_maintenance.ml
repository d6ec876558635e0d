(* E3 — Theorems 4.4/4.5: persistent-view maintenance is
   O(t log |V|) time and O(|V|) space, never touching the chronicle.

   We sweep the number of groups |V| and measure the per-append cost of
   folding one tuple into a SUM/COUNT view backed by (a) a hash table
   (SCA_1's expected-O(1) story) and (b) a B+-tree (Theorem 4.4's
   worst-case O(log|V|)); the tree's node-visit counter exposes the
   logarithm directly. *)

open Relational
open Chronicle_core

let schema = Schema.make [ ("g", Value.TInt); ("x", Value.TInt) ]

let build index groups =
  let group = Group.create "grp" in
  let chron = Chron.create ~group ~name:"c" schema in
  let def =
    Sca.define ~name:"sums" ~body:(Ca.Chronicle chron)
      (Sca.Group_agg ([ "g" ], [ Aggregate.sum "x" "s"; Aggregate.count_star "n" ]))
  in
  let view = View.create ~index def in
  (* prefill one tuple per group so |V| = groups *)
  for g = 1 to groups do
    let tu = Tuple.make [ Value.Int g; Value.Int 1 ] in
    let sn = Chron.append chron [ tu ] in
    View.apply view
      (Delta.of_zset {
        Delta.plus =
          Delta.eval (Sca.body def) ~sn ~batch:[ (chron, [ Chron.tag sn tu ]) ];
        minus = [];
      })
  done;
  (chron, def, view)

let per_append chron def view ~groups =
  Measure.per_op ~times:500 (fun i ->
      let tu = Tuple.make [ Value.Int ((i * 7919 mod groups) + 1); Value.Int 1 ] in
      let sn = Chron.append chron [ tu ] in
      View.apply view
        (Delta.of_zset {
          Delta.plus =
            Delta.eval (Sca.body def) ~sn ~batch:[ (chron, [ Chron.tag sn tu ]) ];
          minus = [];
        }))

let run () =
  Measure.section "E3: Theorems 4.4/4.5 — maintenance vs view size |V|"
    "Per-append maintenance of a grouped SUM/COUNT view as the number of \
     groups grows.  Hash backing: flat (IM-Constant, SCA_1).  B+-tree \
     backing: the node-visit column grows logarithmically (IM-log).  The \
     chronicle-scan column stays 0: the chronicle is never read.";
  let rows = ref [] in
  List.iter
    (fun groups ->
      let hc, hd, hv = build Index.Hash groups in
      let hash = per_append hc hd hv ~groups in
      let tc, td, tv = build Index.Ordered groups in
      let tree = per_append tc td tv ~groups in
      rows :=
        [
          Measure.i groups;
          Measure.f2 hash.Measure.micros;
          Measure.f1 (Measure.counter hash Stats.Index_probe);
          Measure.f2 tree.Measure.micros;
          Measure.f1 (Measure.counter tree Stats.Index_node_visit);
          Measure.f1 (Measure.counter tree Stats.Chronicle_scan);
          Measure.i (View.size tv);
        ]
        :: !rows)
    [ 100; 1_000; 10_000; 100_000 ];
  Measure.print_table
    ~title:"E3  per-append view maintenance vs |V| (500 appends each)"
    ~header:
      [ "|V|"; "hash us"; "hash probes"; "tree us"; "tree node visits";
        "chron scans"; "rows (=O(|V|) space)" ]
    (List.rev !rows)
