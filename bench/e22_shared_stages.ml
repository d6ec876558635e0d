(* E22 — shared key-join Δ stages: N views over one [txn ⋈_key accounts].

   Theorem 4.4 charges each persistent view of SCA_⋈ a constant per Δ
   tuple; the constant for a key join is one index probe into the
   relation.  When N views read the same stage [σ…(C) ⋈_key R], the
   probe and the joined tuple are the same for all N: the engine runs
   the stage once per entry and every view folds its output.  This
   experiment sweeps N ∈ {1, 2, 4, 8, 16} views that differ only in
   their aggregate (GROUP BY branch, cycling SUM/COUNT/MIN/MAX/AVG over
   amount) and records, per Δ tuple:

   - key-join probes ([Stats.Light_fold]): flat at 1 when the stage is
     shared, N when every view probes for itself;
   - index probes ([Stats.Index_probe]): the key-join probes plus one
     group lookup per view;
   - append µs, and fold µs — the append time minus that of the same
     stream into no view, i.e. the cost of maintaining all N views.

   Times are the minimum over [reps] runs of a fixed Zipf(1.1) stream
   of 64-row batches against 10 000 accounts.  The counters are
   machine-independent; the times carry the usual container caveat
   (EXPERIMENTS.md).  Machine-readable evidence lands in BENCH_E22.json
   (recorded copies: bench/results/e22_shared_stages*.json). *)

open Relational
open Chronicle_core
module Banking = Chronicle_workload.Banking
module Rng = Chronicle_workload.Rng
module Zipf = Chronicle_workload.Zipf

let n_accounts = 10_000
let batch = 64
let batches = 400
let reps = 5
let fanouts = [ 1; 2; 4; 8; 16 ]

let aggs =
  Aggregate.
    [|
      sum "amount" "v"; count_star "v"; min_ "amount" "v"; max_ "amount" "v"; avg "amount" "v";
    |]

let mk_db views =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"txn" Banking.txn_schema);
  let acc =
    Db.add_relation db ~name:"accounts" ~schema:Banking.account_schema ~key:[ "acct" ] ()
  in
  List.iter (Versioned.insert acc) (Banking.accounts (Rng.create 7) ~n:n_accounts);
  let body =
    Ca.KeyJoinRel
      (Ca.Chronicle (Db.chronicle db "txn"), Versioned.relation acc, [ ("acct", "acct") ])
  in
  for i = 0 to views - 1 do
    ignore
      (Db.define_view db
         (Sca.define ~name:(Printf.sprintf "v%02d" i) ~body
            (Sca.Group_agg ([ "branch" ], [ aggs.(i mod Array.length aggs) ]))))
  done;
  db

let stream =
  let rng = Rng.create 22 and zipf = Zipf.create ~n:n_accounts ~s:1.1 in
  List.init batches (fun _ -> Banking.txn_stream rng zipf ~n:batch)

let tuples = batches * batch

(* Minimum append µs per Δ tuple over [reps] runs, and the counters of
   the last run. *)
let measure views =
  let best = ref infinity and counters = ref (fun _ -> 0) in
  for _ = 1 to reps do
    let db = mk_db views in
    Gc.full_major ();
    let s0 = Stats.snapshot () in
    let t0 = Measure.now () in
    List.iter (fun rows -> ignore (Db.append db "txn" rows)) stream;
    let elapsed = Measure.now () -. t0 in
    let s1 = Stats.snapshot () in
    best := Float.min !best (elapsed *. 1e6 /. float_of_int tuples);
    counters := Stats.diff_get s0 s1
  done;
  (!best, !counters)

let per_tuple n = float_of_int n /. float_of_int tuples

let run () =
  Measure.section "E22: shared key-join Δ stages"
    "N views over one txn ⋈_key accounts stage (GROUP BY branch, one \
     aggregate each): key-join probes per Δ tuple stay at 1 when the \
     stage is shared, and the fold cost per added view drops to its \
     aggregate step.";
  let record_us, _ = measure 0 in
  let rows =
    List.map
      (fun n ->
        let append_us, counters = measure n in
        let fold_us = append_us -. record_us in
        (n, append_us, fold_us, per_tuple (counters Stats.Light_fold),
         per_tuple (counters Stats.Index_probe)))
      fanouts
  in
  Measure.print_table
    ~title:
      (Printf.sprintf "%d batches of %d rows, %d accounts, Zipf(1.1); record-only %.2f us/tuple"
         batches batch n_accounts record_us)
    ~header:
      [ "views"; "append us/tuple"; "fold us/tuple"; "fold us/tuple/view"; "key-join probes/tuple";
        "index probes/tuple" ]
    (List.map
       (fun (n, append_us, fold_us, kj, ix) ->
         [ Measure.i n; Measure.f3 append_us; Measure.f3 fold_us;
           Measure.f3 (fold_us /. float_of_int n); Measure.f2 kj; Measure.f2 ix ])
       rows);
  Measure.write_json ~file:"BENCH_E22.json"
    (Measure.hardware_json ()
    :: Measure.J_obj
         [
           ("batches", Measure.J_int batches);
           ("batch_rows", Measure.J_int batch);
           ("accounts", Measure.J_int n_accounts);
           ("record_only_micros_per_tuple", Measure.J_float record_us);
         ]
    :: List.map
         (fun (n, append_us, fold_us, kj, ix) ->
           Measure.J_obj
             [
               ("views", Measure.J_int n);
               ("append_micros_per_tuple", Measure.J_float append_us);
               ("fold_micros_per_tuple", Measure.J_float fold_us);
               ("fold_micros_per_tuple_per_view", Measure.J_float (fold_us /. float_of_int n));
               ("keyjoin_probes_per_tuple", Measure.J_float kj);
               ("index_probes_per_tuple", Measure.J_float ix);
             ])
         rows)
