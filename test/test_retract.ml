(* ℤ-weighted deltas: retraction through the whole stack.

   The metamorphic layer pins the algebra of weights: appending a
   stream and then retracting every row (in any order) returns every
   persistent view to its pre-stream state; retracting a subset leaves
   the views exactly as a clean replay of the survivors builds them;
   and the whole script is parallelism-transparent (jobs ∈ {1,2,4}
   produce byte-identical databases).  The differential layer pins the
   weight = +1 fast path: a pure-append workload never moves any of the
   retraction counters. *)

open Relational
open Chronicle_core
open Util
module Durable = Chronicle_durability.Durable
module Storage = Chronicle_durability.Storage

let cname = function 0 -> "mileage" | _ -> "bonus"
let row (acct, miles) = Fixtures.mile acct miles 1.

(* One database exercising every retraction regime at once: an
   invertible linear aggregate, a MIN/MAX extremum (bounded re-probe),
   a key join with a relation, a non-linear ∪ body (at-sn slice
   diffing) and a Rows-backed projection. *)
let view_names = [ "balance"; "extremes"; "by_state"; "merged"; "postings" ]

let mk_db ?(jobs = 1) () =
  let db = Db.create ~jobs () in
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage"
       Fixtures.mileage_schema);
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"bonus"
       Fixtures.mileage_schema);
  let cust =
    Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
      ~key:[ "cust" ] ()
  in
  List.iter
    (Versioned.insert cust)
    [
      tup [ vi 1; vs "NJ" ];
      tup [ vi 2; vs "NY" ];
      tup [ vi 3; vs "NJ" ];
      tup [ vi 4; vs "CA" ];
    ];
  let mileage = Ca.Chronicle (Db.chronicle db "mileage") in
  let bonus = Ca.Chronicle (Db.chronicle db "bonus") in
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance" ~body:mileage
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "balance"; Aggregate.count_star "n" ] ))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"extremes" ~body:mileage
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.max_ "miles" "hi"; Aggregate.min_ "miles" "lo" ] ))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"by_state"
          ~body:
            (Ca.KeyJoinRel
               (mileage, Versioned.relation cust, [ ("acct", "cust") ]))
          (Sca.Group_agg ([ "state" ], [ Aggregate.sum "miles" "m" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"merged"
          ~body:(Ca.Union (mileage, bonus))
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "total"; Aggregate.count_star "k" ] ))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"postings"
          ~body:(Ca.Select (Predicate.("miles" >% vi 0), mileage))
          (Sca.Project_out [ "acct"; "miles" ])));
  db

(* ---- scenario: pure data, so one script runs at several degrees ----

   Each batch lands under one sequence number; every row carries a
   retraction priority (the random order) and a survival flag (the
   partial-retraction subset). *)

type srow = { acct : int; miles : int; prio : int; keep : bool }
type batch = { chron : int; rows : srow list }
type scenario = batch list

let append_all db (s : scenario) =
  List.iter
    (fun b ->
      ignore
        (Db.append db (cname b.chron)
           (List.map (fun r -> row (r.acct, r.miles)) b.rows)))
    s

(* All rows matching [sel], in ascending priority order (stable, so
   duplicates are deterministic). *)
let to_retract sel (s : scenario) =
  List.concat_map
    (fun b -> List.filter_map (fun r -> if sel r then Some (b.chron, r) else None) b.rows)
    s
  |> List.stable_sort (fun (_, a) (_, b) -> compare a.prio b.prio)

let retract_all db sel s =
  List.iter
    (fun (chron, r) ->
      check_int "one occurrence claimed" 1
        (Db.retract db (cname chron) [ row (r.acct, r.miles) ]))
    (to_retract sel s)

let gen_scenario =
  QCheck.Gen.(
    let gen_row =
      map
        (fun ((acct, miles), (prio, keep)) -> { acct; miles; prio; keep })
        (pair (pair (1 -- 4) (1 -- 50)) (pair (0 -- 1000) bool))
    in
    list_size (1 -- 8)
      (map
         (fun (chron, rows) -> { chron; rows })
         (pair (0 -- 1) (list_size (1 -- 3) gen_row))))

let print_scenario (s : scenario) =
  String.concat "; "
    (List.map
       (fun b ->
         Printf.sprintf "%s:[%s]" (cname b.chron)
           (String.concat ","
              (List.map
                 (fun r ->
                   Printf.sprintf "(%d,%d,p%d,%s)" r.acct r.miles r.prio
                     (if r.keep then "keep" else "drop"))
                 b.rows)))
       s)

let scenario_arb = QCheck.make ~print:print_scenario gen_scenario

(* ---- metamorphic: append then retract everything ≡ never happened ---- *)

let prop_full_retraction s =
  let db = mk_db () in
  append_all db s;
  retract_all db (fun _ -> true) s;
  List.iter
    (fun v -> check_tuples (v ^ " back to pre-stream") [] (Db.view_contents db v))
    view_names;
  check_int "mileage store empty" 0 (Chron.stored_count (Db.chronicle db "mileage"));
  check_int "bonus store empty" 0 (Chron.stored_count (Db.chronicle db "bonus"));
  true

(* ---- metamorphic: partial retraction ≡ clean replay of survivors ---- *)

(* The survivors [Db.retract] leaves: each dropped row, in retraction
   order, claims its newest unclaimed occurrence — the latest batch of
   its chronicle still holding an equal row — exactly the documented
   resolution rule.  Keeping a row's own flag instead would be wrong
   when one batch holds the same row twice (one dropped, one kept) and
   a later batch holds it again: the retraction claims the later one,
   and under a ∪ body, which deduplicates within one sequence number,
   the two histories then differ. *)
let survivors (s : scenario) =
  let batches = Array.of_list (List.map (fun b -> (b.chron, ref b.rows)) s) in
  let same r r' = r.acct = r'.acct && r.miles = r'.miles in
  let rec remove_one r = function
    | [] -> []
    | r' :: rest -> if same r r' then rest else r' :: remove_one r rest
  in
  List.iter
    (fun (chron, r) ->
      let rec claim i =
        let c, rows = batches.(i) in
        if c = chron && List.exists (same r) !rows then rows := remove_one r !rows
        else claim (i - 1)
      in
      claim (Array.length batches - 1))
    (to_retract (fun r -> not r.keep) s);
  List.filter_map
    (fun (chron, rows) -> if !rows = [] then None else Some { chron; rows = !rows })
    (Array.to_list batches)

let prop_partial_retraction s =
  let db = mk_db () in
  append_all db s;
  retract_all db (fun r -> not r.keep) s;
  let oracle = mk_db () in
  append_all oracle (survivors s);
  (* sequence numbers differ between the two histories, but no view
     exposes them: group aggregates are sn-insensitive and the
     projection drops the sequencing attribute *)
  List.iter
    (fun v ->
      check_tuples
        (v ^ " ≡ replay of survivors")
        (Db.view_contents oracle v) (Db.view_contents db v))
    view_names;
  true

(* the shape that once split oracle and database: (4,3) twice in one
   mileage batch (one dropped, one kept) and again in a later batch *)
let test_partial_retraction_duplicate_rows () =
  let r acct miles prio keep = { acct; miles; prio; keep } in
  ignore
    (prop_partial_retraction
       [
         { chron = 1; rows = [ r 1 6 236 false; r 4 42 620 false ] };
         { chron = 1; rows = [ r 4 9 873 true; r 3 22 878 true; r 3 9 562 false ] };
         { chron = 1; rows = [ r 4 5 786 false; r 3 40 183 false ] };
         { chron = 1; rows = [ r 1 47 269 false; r 1 42 991 false ] };
         { chron = 0; rows = [ r 4 3 340 false; r 1 7 740 false; r 4 3 612 true ] };
         { chron = 1; rows = [ r 2 21 236 false; r 4 40 142 false; r 1 12 38 false ] };
         { chron = 0; rows = [ r 4 3 43 true; r 3 26 707 true; r 1 35 932 true ] };
       ])

(* ---- parallelism transparency: jobs ∈ {1,2,4} byte-identical ---- *)

let prop_retract_parallel_transparent s =
  let run jobs =
    let db = mk_db ~jobs () in
    append_all db s;
    retract_all db (fun r -> not r.keep) s;
    Snapshot.save db
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      if not (String.equal (run jobs) reference) then
        QCheck.Test.fail_reportf
          "retraction at jobs=%d diverged from the sequential run" jobs)
    [ 2; 4 ];
  true

(* ---- differential: the weight = +1 fast path never pays ---- *)

let retract_counters =
  Stats.[ Retract_apply; Weight_cancel; Aggregate_reprobe ]

let prop_pure_append_zero_counters s =
  let db = mk_db () in
  let before = Stats.snapshot () in
  append_all db s;
  let after = Stats.snapshot () in
  List.iter
    (fun c ->
      check_int
        (Stats.counter_name c ^ " untouched by pure appends")
        0
        (Stats.diff_get before after c))
    retract_counters;
  true

(* ---- deterministic units ---- *)

let test_retract_basic () =
  let db = mk_db () in
  ignore (Db.append db "mileage" [ row (1, 100); row (2, 200) ]);
  ignore (Db.append db "mileage" [ row (1, 50) ]);
  let before = Stats.snapshot () in
  check_int "two rows in one call" 2
    (Db.retract db "mileage" [ row (1, 100); row (2, 200) ]);
  let after = Stats.snapshot () in
  check_int "one Retract_apply per call" 1
    (Stats.diff_get before after Stats.Retract_apply);
  check_bool "acct 1 keeps the survivor" true
    (Db.summary db ~view:"balance" [ vi 1 ] = Some (tup [ vi 1; vi 50; vi 1 ]));
  check_bool "acct 2 group is gone" true
    (Db.summary db ~view:"balance" [ vi 2 ] = None)

let test_retract_requires_full_retention () =
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~retention:(Chron.Window 4) ~name:"mileage"
       Fixtures.mileage_schema);
  ignore (Db.append db "mileage" [ row (1, 10) ]);
  check_raises_any "windowed retention refuses retraction" (fun () ->
      ignore (Db.retract db "mileage" [ row (1, 10) ]))

let test_retract_absent_row_is_atomic () =
  let db = mk_db () in
  ignore (Db.append db "mileage" [ row (1, 10) ]);
  let saved = Snapshot.save db in
  check_raises_any "no stored occurrence" (fun () ->
      ignore (Db.retract db "mileage" [ row (2, 99) ]));
  (* the failing row is detected during resolution, before the journal
     record or any mutation: the database is bit-for-bit unchanged *)
  check_raises_any "partial batches fail whole" (fun () ->
      ignore (Db.retract db "mileage" [ row (1, 10); row (2, 99) ]));
  check_string "state unchanged" saved (Snapshot.save db)

let test_retract_claims_newest_occurrence () =
  let db = mk_db () in
  ignore (Db.append db "mileage" [ row (1, 10) ]);
  ignore (Db.append db "mileage" [ row (1, 10) ]);
  check_int "claims one" 1 (Db.retract db "mileage" [ row (1, 10) ]);
  (match Chron.stored (Db.chronicle db "mileage") with
  | [ survivor ] ->
      check_int "the newest occurrence was claimed" 1 (Chron.sn_of survivor)
  | l -> Alcotest.failf "expected one survivor, got %d" (List.length l));
  check_bool "count reflects the claim" true
    (Db.summary db ~view:"balance" [ vi 1 ] = Some (tup [ vi 1; vi 10; vi 1 ]))

let test_retract_minmax_reprobe () =
  let db = mk_db () in
  ignore (Db.append db "mileage" [ row (1, 10) ]);
  ignore (Db.append db "mileage" [ row (1, 50) ]);
  ignore (Db.append db "mileage" [ row (1, 30) ]);
  let before = Stats.snapshot () in
  check_int "extremum retracted" 1 (Db.retract db "mileage" [ row (1, 50) ]);
  let after = Stats.snapshot () in
  check_bool "MIN/MAX re-probed from retained history" true
    (Stats.diff_get before after Stats.Aggregate_reprobe >= 1);
  check_bool "new extrema" true
    (Db.summary db ~view:"extremes" [ vi 1 ] = Some (tup [ vi 1; vi 30; vi 10 ]));
  check_int "then the floor" 1 (Db.retract db "mileage" [ row (1, 10) ]);
  check_bool "degenerate group" true
    (Db.summary db ~view:"extremes" [ vi 1 ] = Some (tup [ vi 1; vi 30; vi 30 ]))

let test_retract_union_slice_diff () =
  let db = mk_db () in
  (* two rows under one sequence number: retracting one makes the ∪
     view diff the at-sn slice, and the surviving row cancels *)
  ignore (Db.append db "mileage" [ row (1, 10); row (2, 20) ]);
  ignore (Db.append db "bonus" [ row (1, 5) ]);
  let before = Stats.snapshot () in
  check_int "retracted" 1 (Db.retract db "mileage" [ row (2, 20) ]);
  let after = Stats.snapshot () in
  check_bool "the surviving slice row cancelled" true
    (Stats.diff_get before after Stats.Weight_cancel >= 1);
  check_bool "union keeps both sources for acct 1" true
    (Db.summary db ~view:"merged" [ vi 1 ] = Some (tup [ vi 1; vi 15; vi 2 ]));
  check_bool "acct 2 is gone from the union" true
    (Db.summary db ~view:"merged" [ vi 2 ] = None)

let test_retract_classification () =
  let fx = Fixtures.make () in
  let linear = Fixtures.balance_def fx in
  let lc, lnotes = Classify.retract_class linear in
  check_string "linear+SUM keeps its class" "IM-Constant"
    (Classify.im_class_name lc);
  check_bool "says why" true
    (List.exists
       (fun n ->
         (* mentions preservation of the append-path class *)
         String.length n > 0
         && Option.is_some (String.index_opt n 'p'))
       lnotes);
  let extremal =
    Sca.define ~name:"hi" ~body:(Ca.Chronicle fx.mileage)
      (Sca.Group_agg ([ "acct" ], [ Aggregate.max_ "miles" "hi" ]))
  in
  check_string "MAX demotes to IM-R^k" "IM-R^k"
    (Classify.im_class_name (fst (Classify.retract_class extremal)));
  let union =
    Sca.define ~name:"u"
      ~body:(Ca.Union (Ca.Chronicle fx.mileage, Ca.Chronicle fx.bonus))
      (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ]))
  in
  check_string "∪ demotes to IM-R^k" "IM-R^k"
    (Classify.im_class_name (fst (Classify.retract_class union)));
  let cross =
    Sca.define ~allow_non_ca:true ~name:"x"
      ~body:(Ca.CrossChron (Ca.Chronicle fx.mileage, Ca.Chronicle fx.bonus))
      (Sca.Group_agg ([ "acct" ], [ Aggregate.count_star "n" ]))
  in
  check_string "history reader is IM-C^k" "IM-C^k"
    (Classify.im_class_name (fst (Classify.retract_class cross)))

let test_retract_durable_roundtrip () =
  let st = Storage.mem () in
  let db = mk_db () in
  ignore (Durable.attach ~storage:st db);
  ignore (Db.append db "mileage" [ row (1, 100) ]);
  ignore (Db.append db "mileage" [ row (1, 50); row (2, 20) ]);
  check_int "retracted" 2 (Db.retract db "mileage" [ row (1, 100); row (2, 20) ]);
  let d', report = Durable.recover ~storage:st () in
  check_bool "the retract record replayed" true (report.Durable.replayed >= 3);
  check_string "recovered ≡ live, retraction included" (Snapshot.save db)
    (Snapshot.save (Durable.db d'));
  (* idempotence: recovering again (checkpoint now holds the applied
     retraction) reaches the same state *)
  Durable.checkpoint d';
  let d'', _ = Durable.recover ~storage:st () in
  check_string "re-recovery is a fixpoint" (Snapshot.save db)
    (Snapshot.save (Durable.db d''))

let suite =
  [
    test "retract: invertible aggregates and counters" test_retract_basic;
    test "retract: requires Full retention" test_retract_requires_full_retention;
    test "retract: absent row aborts atomically" test_retract_absent_row_is_atomic;
    test "retract: claims the newest occurrence" test_retract_claims_newest_occurrence;
    test "retract: MIN/MAX bounded re-probe" test_retract_minmax_reprobe;
    test "retract: union diffs the at-sn slice" test_retract_union_slice_diff;
    test "retract: static classification" test_retract_classification;
    test "retract: durable journal round-trip" test_retract_durable_roundtrip;
    test "retract: partial retraction with duplicate rows"
      test_partial_retraction_duplicate_rows;
    qtest ~count:60 "append ∘ retract-all ≡ identity (random order)"
      scenario_arb prop_full_retraction;
    qtest ~count:60 "partial retraction ≡ clean replay of survivors"
      scenario_arb prop_partial_retraction;
    qtest ~count:20 "retraction is parallelism-transparent (jobs 1/2/4)"
      scenario_arb prop_retract_parallel_transparent;
    qtest ~count:60 "pure appends never move retraction counters"
      scenario_arb prop_pure_append_zero_counters;
  ]
