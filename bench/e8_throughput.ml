(* E8 — end-to-end transaction throughput (the "stringent performance
   requirements" motivation).

   Appends/second through the full database path (chronicle + registry
   + Δ-maintenance) as the number of persistent views grows, against
   the hand-written procedural summary-field code.  The declarative
   engine is within the same order of magnitude as the hand-written
   loop — while also being statically classified, filterable, and
   immune to the Chemical-Bank class of bugs. *)

open Relational
open Chronicle_core
open Chronicle_baseline
open Chronicle_workload

let accounts = 2_000

let view_defs db k =
  let chron = Ca.Chronicle (Db.chronicle db "txns") in
  let defs =
    [
      ("balance", Sca.Group_agg ([ "acct" ], [ Aggregate.sum "amount" "balance" ]));
      ("txn_count", Sca.Group_agg ([ "acct" ], [ Aggregate.count_star "n" ]));
      ("largest", Sca.Group_agg ([ "acct" ], [ Aggregate.max_ "amount" "max_dep" ]));
      ("smallest", Sca.Group_agg ([ "acct" ], [ Aggregate.min_ "amount" "min_w" ]));
      ("by_kind", Sca.Group_agg ([ "kind" ], [ Aggregate.count_star "n" ]));
      ("avg_amt", Sca.Group_agg ([ "acct" ], [ Aggregate.avg "amount" "avg" ]));
      ("kinds_seen", Sca.Project_out [ "kind" ]);
      ("accts_seen", Sca.Project_out [ "acct" ]);
    ]
  in
  List.filteri (fun i _ -> i < k) (defs @ defs)
  |> List.mapi (fun i (name, summ) ->
         Sca.define ~name:(Printf.sprintf "%s_%d" name i) ~body:chron summ)

let run () =
  Measure.section "E8: end-to-end throughput"
    "Appends/second through the full transaction path with k persistent \
     views, vs the hand-written procedural summary-field code (which \
     maintains exactly one balance field).";
  let rng0 = Rng.create 17 in
  let zipf = Zipf.create ~n:accounts ~s:1.0 in
  let appends = 20_000 in
  let runs = 3 in
  let rows = ref [] in
  let json = ref [] in
  (* procedural baseline *)
  let sf = Summary_fields.create_banking () in
  let rng = Rng.split rng0 in
  let secs =
    Measure.median_time ~runs (fun () ->
        for _ = 1 to appends do
          Summary_fields.process sf (Banking.txn rng zipf)
        done)
  in
  rows :=
    [
      "procedural (1 field)";
      Measure.i (int_of_float (float_of_int appends /. secs));
      "-";
    ]
    :: !rows;
  json :=
    Measure.(
      J_obj
        [
          ("op", J_str "procedural_baseline");
          ("n", J_int 0);
          ("appends_per_sec", J_float (float_of_int appends /. secs));
          ("micros_per_op", J_float (secs /. float_of_int appends *. 1e6));
        ])
    :: !json;
  (* declarative engine with k views *)
  List.iter
    (fun k ->
      let db = Db.create () in
      ignore (Db.add_chronicle db ~name:"txns" Banking.txn_schema);
      List.iter (fun def -> ignore (Db.define_view db def)) (view_defs db k);
      let rng = Rng.split rng0 in
      (* counters captured across every timed run: per-append deltas
         witness the steady state (plan_cache_hit = k per append,
         plan/predicate/projector compiles = 0) *)
      let before = Stats.snapshot () in
      let secs =
        Measure.median_time ~runs (fun () ->
            for _ = 1 to appends do
              ignore (Db.append db "txns" [ Banking.txn rng zipf ])
            done)
      in
      let after = Stats.snapshot () in
      let per_append =
        let total = float_of_int (runs * appends) in
        List.map
          (fun (c, d) -> (c, float_of_int d /. total))
          (Stats.diff before after)
      in
      rows :=
        [
          Printf.sprintf "chronicle db, %d views" k;
          Measure.i (int_of_float (float_of_int appends /. secs));
          Measure.f2 (secs /. float_of_int appends *. 1e6);
        ]
        :: !rows;
      json :=
        Measure.(
          J_obj
            [
              ("op", J_str "chronicle_db_append");
              ("n", J_int k);
              ("appends_per_sec", J_float (float_of_int appends /. secs));
              ("micros_per_op", J_float (secs /. float_of_int appends *. 1e6));
              ("counters", json_counters per_append);
            ])
        :: !json)
    [ 1; 4; 8; 16 ];
  Measure.print_table ~title:"E8  sustained append throughput"
    ~header:[ "configuration"; "appends/sec"; "us/append" ]
    (List.rev !rows);
  Measure.write_json ~file:"BENCH_throughput.json" (Measure.hardware_json () :: List.rev !json)
