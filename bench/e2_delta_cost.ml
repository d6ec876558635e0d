(* E2 — Theorem 4.2: the Δ-computation cost of the three chronicle-
   algebra tiers.

     CA     : O((u|R|)^j log|R|)  — grows polynomially with |R| per join
     CA_join: O(u^j log|R|)      — index probes only, ~log|R|
     CA_1   : O(u^j)             — no dependence on |R| at all

   and all three are independent of |C| (the chronicles here retain
   nothing, so any dependence would crash). *)

open Relational
open Chronicle_core

let chron_schema = Schema.make [ ("k", Value.TInt); ("x", Value.TInt) ]

let make_rel name prefix size =
  let schema =
    Schema.make [ (prefix ^ "k", Value.TInt); (prefix ^ "v", Value.TInt) ]
  in
  let rel = Relation.create ~name ~schema ~key:[ prefix ^ "k" ] () in
  for i = 1 to size do
    ignore (Relation.insert rel (Tuple.make [ Value.Int i; Value.Int (i * 7) ]))
  done;
  (* probe through a B+-tree index so the log|R| factor of Theorem 4.2
     is visible in the node-visit counter (the key's default hash index
     would hide it behind expected-O(1) probes) *)
  Relation.create_index rel Index.Ordered [ prefix ^ "k" ];
  rel

let delta_cost expr chron ~appends =
  let size = Chron.total_appended chron in
  (* compile once, run per append — the same steady-state path a
     registered view takes through its plan cache *)
  let plan = Delta.compile expr in
  Measure.per_op ~times:appends (fun i ->
      (* x stays within 1..97 so key joins always match exactly one row
         of every relation size in the sweep *)
      let tu = Tuple.make [ Value.Int (i mod 17); Value.Int ((size + i) mod 97 + 1) ] in
      let sn = Chron.append chron [ tu ] in
      ignore (Delta.run plan ~sn (Delta.appended [ (chron, [ Chron.tag sn tu ]) ])))

(* JSON evidence records accumulated by both sweeps and written at the
   end of [run] (committed copies live under bench/results/). *)
let json_rows : Measure.json list ref = ref []

let record ~op ~n cost =
  json_rows := Measure.json_of_per_op ~op ~n cost :: !json_rows

let sweep_r () =
  let rows = ref [] in
  List.iter
    (fun rsize ->
      let group = Group.create "g" in
      let chron = Chron.create ~group ~name:"c" chron_schema in
      let r1 = make_rel "r1" "a" rsize in
      let r2 = make_rel "r2" "b" rsize in
      (* CA with j=1 and j=2 products *)
      let ca1j = Ca.ProductRel (Ca.Chronicle chron, r1) in
      let ca2j = Ca.ProductRel (Ca.ProductRel (Ca.Chronicle chron, r1), r2) in
      (* CA_join with j=1 and j=2 key joins *)
      let caj1 = Ca.KeyJoinRel (Ca.Chronicle chron, r1, [ ("x", "ak") ]) in
      let caj2 = Ca.KeyJoinRel (caj1, r2, [ ("x", "bk") ]) in
      (* CA_1: selection only *)
      let cab = Ca.Select (Predicate.("k" >% Value.Int 2), Ca.Chronicle chron) in
      (* keep the product runs small; their cost is |R|^j per append *)
      let appends_for_products = if rsize > 1000 then 5 else 50 in
      let c_prod1 = delta_cost ca1j chron ~appends:appends_for_products in
      let c_prod2 =
        if rsize > 3000 then None
        else Some (delta_cost ca2j chron ~appends:(max 2 (appends_for_products / 2)))
      in
      let c_key1 = delta_cost caj1 chron ~appends:300 in
      let c_key2 = delta_cost caj2 chron ~appends:300 in
      let c_base = delta_cost cab chron ~appends:300 in
      record ~op:"ca_product_j1" ~n:rsize c_prod1;
      Option.iter (record ~op:"ca_product_j2" ~n:rsize) c_prod2;
      record ~op:"ca_join_j1" ~n:rsize c_key1;
      record ~op:"ca_join_j2" ~n:rsize c_key2;
      record ~op:"ca_1_select" ~n:rsize c_base;
      rows :=
        [
          Measure.i rsize;
          Measure.f1 c_prod1.Measure.micros;
          (match c_prod2 with
          | Some c -> Measure.f1 c.Measure.micros
          | None -> "(skipped)");
          Measure.f2 c_key1.Measure.micros;
          Measure.f1 (Measure.counter c_key1 Stats.Index_node_visit);
          Measure.f2 c_key2.Measure.micros;
          Measure.f3 c_base.Measure.micros;
        ]
        :: !rows)
    [ 100; 1_000; 10_000; 100_000 ];
  Measure.print_table ~title:"E2a  Δ-computation cost vs |R| (per append)"
    ~header:
      [ "|R|"; "CA j=1 us"; "CA j=2 us"; "CAjoin j=1 us"; "node visits";
        "CAjoin j=2 us"; "CA_1 us" ]
    (List.rev !rows)

let sweep_u () =
  (* CA_1 cost as the number of unions grows: O(u^j) with j=0 means the
     delta size (and cost) grows linearly in the number of branches *)
  let rows = ref [] in
  List.iter
    (fun u ->
      let group = Group.create "g" in
      let chron = Chron.create ~group ~name:"c" chron_schema in
      let branch i =
        Ca.Select (Predicate.("x" >=% Value.Int (-i)), Ca.Chronicle chron)
      in
      let expr = ref (branch 0) in
      for i = 1 to u do
        expr := Ca.Union (!expr, branch i)
      done;
      let cost = delta_cost !expr chron ~appends:300 in
      record ~op:"ca_1_union_sweep" ~n:u cost;
      rows :=
        [ Measure.i u; Measure.f2 cost.Measure.micros ] :: !rows)
    [ 0; 1; 2; 4; 8 ];
  Measure.print_table ~title:"E2b  CA_1 Δ cost vs number of unions u"
    ~header:[ "u"; "us/append" ] (List.rev !rows)

let run () =
  Measure.section "E2: Theorem 4.2 — Δ-computation cost by language tier"
    "Chronicles retain nothing here: every number below is achieved with \
     zero access to chronicle history, so nothing can depend on |C|.  CA \
     products scale with |R|^j; CA_join scales with log|R| (see the node- \
     visit column); CA_1 ignores |R| entirely.";
  json_rows := [];
  sweep_r ();
  sweep_u ();
  Measure.write_json ~file:"BENCH_delta_cost.json" (Measure.hardware_json () :: List.rev !json_rows)
