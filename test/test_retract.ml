(* ℤ-weighted deltas: retraction through the whole stack.

   The metamorphic layer pins the algebra of weights: appending a
   stream and then retracting every row (in any order) returns every
   persistent view to its pre-stream state; and retracting a subset
   leaves the views exactly as a clean replay of the survivors builds
   them.  The differential layer pins the
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
   a key join with a relation, a Rows-backed projection, and every
   non-linear body (at-sn slice diffing): ∪, −, ⋈_SN, and GROUPBY over
   the sequence number feeding a MAX. *)
let view_names =
  [ "balance"; "extremes"; "by_state"; "merged"; "postings"; "unmatched";
    "paired"; "peak_batch" ]

let mk_db ?index () =
  let db = Db.create () in
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
    (Db.define_view db ?index
       (Sca.define ~name:"balance" ~body:mileage
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "balance"; Aggregate.count_star "n" ] ))));
  ignore
    (Db.define_view db ?index
       (Sca.define ~name:"extremes" ~body:mileage
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.max_ "miles" "hi"; Aggregate.min_ "miles" "lo" ] ))));
  ignore
    (Db.define_view db ?index
       (Sca.define ~name:"by_state"
          ~body:
            (Ca.KeyJoinRel
               (mileage, Versioned.relation cust, [ ("acct", "cust") ]))
          (Sca.Group_agg ([ "state" ], [ Aggregate.sum "miles" "m" ]))));
  ignore
    (Db.define_view db ?index
       (Sca.define ~name:"merged"
          ~body:(Ca.Union (mileage, bonus))
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "total"; Aggregate.count_star "k" ] ))));
  ignore
    (Db.define_view db ?index
       (Sca.define ~name:"postings"
          ~body:(Ca.Select (Predicate.("miles" >% vi 0), mileage))
          (Sca.Project_out [ "acct"; "miles" ])));
  ignore
    (Db.define_view db ?index
       (Sca.define ~name:"unmatched"
          ~body:(Ca.Diff (mileage, bonus))
          (Sca.Project_out [ "acct"; "miles" ])));
  ignore
    (Db.define_view db ?index
       (Sca.define ~name:"paired"
          ~body:
            (Ca.SeqJoin
               ( Ca.Project ([ Seqnum.attr; "acct" ], mileage),
                 Ca.Project ([ Seqnum.attr; "miles" ], bonus) ))
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "m"; Aggregate.count_star "k" ] ))));
  ignore
    (Db.define_view db ?index
       (Sca.define ~name:"peak_batch"
          ~body:
            (Ca.GroupBySeq
               ([ Seqnum.attr; "acct" ], [ Aggregate.sum "miles" "total" ], mileage))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.max_ "total" "peak" ]))));
  db

(* ---- scenario: pure data, so one script runs at several degrees ----

   Each batch lands under one sequence number, in one chronicle or in
   both; every row carries a retraction priority (the random order) and
   a survival flag (the partial-retraction subset). *)

type srow = { acct : int; miles : int; prio : int; keep : bool }
type part = { chron : int; rows : srow list }
type batch = part list (* distinct chronicles *)
type scenario = batch list

let append_all db (s : scenario) =
  List.iter
    (fun b ->
      ignore
        (Db.append_multi db
           (List.map
              (fun p -> (cname p.chron, List.map (fun r -> row (r.acct, r.miles)) p.rows))
              b)))
    s

(* All rows matching [sel], in ascending priority order (stable, so
   duplicates are deterministic). *)
let to_retract sel (s : scenario) =
  List.concat_map
    (List.concat_map (fun p ->
         List.filter_map (fun r -> if sel r then Some (p.chron, r) else None) p.rows))
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
    let gen_part chron = map (fun rows -> { chron; rows }) (list_size (1 -- 3) gen_row) in
    list_size (1 -- 8)
      (oneof
         [
           map (fun p -> [ p ]) (0 -- 1 >>= gen_part);
           map2 (fun m b -> [ m; b ]) (gen_part 0) (gen_part 1);
         ]))

let print_scenario (s : scenario) =
  String.concat "; "
    (List.map
       (fun b ->
         String.concat "+"
           (List.map
              (fun p ->
                Printf.sprintf "%s:[%s]" (cname p.chron)
                  (String.concat ","
                     (List.map
                        (fun r ->
                          Printf.sprintf "(%d,%d,p%d,%s)" r.acct r.miles r.prio
                            (if r.keep then "keep" else "drop"))
                        p.rows)))
              b))
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
  let batches =
    Array.of_list (List.map (List.map (fun p -> (p.chron, ref p.rows))) s)
  in
  let same r r' = r.acct = r'.acct && r.miles = r'.miles in
  let rec remove_one r = function
    | [] -> []
    | r' :: rest -> if same r r' then rest else r' :: remove_one r rest
  in
  List.iter
    (fun (chron, r) ->
      let rec claim i =
        match List.assoc_opt chron batches.(i) with
        | Some rows when List.exists (same r) !rows -> rows := remove_one r !rows
        | Some _ | None -> claim (i - 1)
      in
      claim (Array.length batches - 1))
    (to_retract (fun r -> not r.keep) s);
  List.filter_map
    (fun parts ->
      match
        List.filter_map
          (fun (chron, rows) -> if !rows = [] then None else Some { chron; rows = !rows })
          parts
      with
      | [] -> None
      | b -> Some b)
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
       (List.map
          (fun p -> [ p ])
          [
            { chron = 1; rows = [ r 1 6 236 false; r 4 42 620 false ] };
            { chron = 1; rows = [ r 4 9 873 true; r 3 22 878 true; r 3 9 562 false ] };
            { chron = 1; rows = [ r 4 5 786 false; r 3 40 183 false ] };
            { chron = 1; rows = [ r 1 47 269 false; r 1 42 991 false ] };
            { chron = 0; rows = [ r 4 3 340 false; r 1 7 740 false; r 4 3 612 true ] };
            { chron = 1; rows = [ r 2 21 236 false; r 4 40 142 false; r 1 12 38 false ] };
            { chron = 0; rows = [ r 4 3 43 true; r 3 26 707 true; r 1 35 932 true ] };
          ]))

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

let test_retract_diff_gains_rows () =
  let db = mk_db () in
  (* (1, 10) in both chronicles under one sequence number: the
     difference hides it until its right-hand occurrence goes *)
  ignore
    (Db.append_multi db
       [ ("mileage", [ row (1, 10); row (2, 20) ]); ("bonus", [ row (1, 10) ]) ]);
  check_tuples "hidden by the right-hand row"
    [ tup [ vi 2; vi 20 ] ]
    (Db.view_contents db "unmatched");
  check_int "retracted" 1 (Db.retract db "bonus" [ row (1, 10) ]);
  check_tuples "the difference gains the row"
    [ tup [ vi 1; vi 10 ]; tup [ vi 2; vi 20 ] ]
    (Db.view_contents db "unmatched");
  check_int "and loses it with its left-hand row" 1
    (Db.retract db "mileage" [ row (1, 10) ]);
  check_tuples "left-hand retraction" [ tup [ vi 2; vi 20 ] ]
    (Db.view_contents db "unmatched")

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

(* ---- logical undo: a failed retraction leaves no trace ---- *)

let backings = [ Index.Hash; Index.Ordered ]

(* A retraction whose k-th view fold raises, through a probe that
   throws, for every k: the retraction removes a group (acct 2's only
   mileage row) and acct 1's maximum (a MIN/MAX re-probe), on both
   backings.  The database is byte-identical afterwards, and then
   appends and retracts exactly like a run that never failed. *)
let test_retract_fold_failure_rolls_back () =
  List.iter
    (fun index ->
      let setup () =
        let db = mk_db ~index () in
        ignore (Db.append db "mileage" [ row (1, 10); row (2, 20) ]);
        ignore (Db.append db "mileage" [ row (1, 50); row (3, 7) ]);
        ignore (Db.append db "bonus" [ row (2, 5) ]);
        db
      in
      let victims = [ row (1, 50); row (2, 20) ] in
      let afterwards db =
        (* an append failing after a retraction built the occurrence
           index leaves no phantom occurrence in it *)
        Db.set_fold_probe db
          (Some (fun ~view:_ ~sn:_ -> failwith "append fold"));
        check_raises_any "a failing append" (fun () ->
            Db.append db "mileage" [ row (9, 9) ]);
        Db.set_fold_probe db None;
        check_raises_any "its row was never stored" (fun () ->
            Db.retract db "mileage" [ row (9, 9) ]);
        ignore (Db.append db "mileage" [ row (2, 30); row (1, 50) ]);
        check_int "retracts again" 2
          (Db.retract db "mileage" [ row (1, 50); row (3, 7) ])
      in
      let reference = setup () in
      let folds = ref 0 in
      Db.set_fold_probe reference (Some (fun ~view:_ ~sn:_ -> incr folds));
      let before = Stats.snapshot () in
      check_int "clean retraction" 2 (Db.retract reference "mileage" victims);
      check_bool "re-probes acct 1's maximum" true
        (Stats.diff_get before (Stats.snapshot ()) Stats.Aggregate_reprobe >= 1);
      check_bool "removes acct 2's group" true
        (Db.summary reference ~view:"balance" [ vi 2 ] = None);
      Db.set_fold_probe reference None;
      afterwards reference;
      for k = 1 to !folds do
        let db = setup () in
        let saved = Snapshot.save db in
        let n = ref 0 in
        Db.set_fold_probe db
          (Some
             (fun ~view:_ ~sn:_ ->
               incr n;
               if !n = k then failwith "fold failure"));
        check_raises_any "the failing fold aborts the retraction" (fun () ->
            Db.retract db "mileage" victims);
        Db.set_fold_probe db None;
        check_string
          (Printf.sprintf "fold %d failing leaves the database unchanged" k)
          saved (Snapshot.save db);
        check_int "then retracts" 2 (Db.retract db "mileage" victims);
        afterwards db;
        check_string
          (Printf.sprintf "fold %d: later operations match the clean run" k)
          (Snapshot.save reference) (Snapshot.save db)
      done)
    backings

(* History-reading views (cross products of both chronicles) are
   rebuilt from retained history inside the retraction's transaction,
   each rebuild announced to the fold probe like a fold: afterwards
   they equal a fresh definition, and a failure at any fold — one
   after the first rebuild included — restores the database to the
   byte. *)
let test_retract_rematerializes_history_readers () =
  let cross db name agg =
    Sca.define ~allow_non_ca:true ~name
      ~body:
        (Ca.CrossChron
           ( Ca.Chronicle (Db.chronicle db "mileage"),
             Ca.Chronicle (Db.chronicle db "bonus") ))
      (Sca.Group_agg ([ "acct" ], [ agg ]))
  in
  let readers db =
    [ cross db "pairs" (Aggregate.count_star "n");
      cross db "pair_miles" (Aggregate.sum "miles" "m") ]
  in
  List.iter
    (fun index ->
      let setup () =
        let db = mk_db ~index () in
        List.iter
          (fun def ->
            ignore (Db.define_view db ~index ~tier_limit:Classify.IM_poly_c def))
          (readers db);
        ignore (Db.append db "mileage" [ row (1, 10); row (2, 20) ]);
        ignore (Db.append db "bonus" [ row (1, 5); row (3, 6) ]);
        ignore (Db.append db "mileage" [ row (1, 50) ]);
        db
      in
      let victims = [ row (1, 50); row (2, 20) ] in
      let reference = setup () in
      let folds = ref 0 in
      Db.set_fold_probe reference (Some (fun ~view:_ ~sn:_ -> incr folds));
      check_int "retracted" 2 (Db.retract reference "mileage" victims);
      Db.set_fold_probe reference None;
      List.iter
        (fun def ->
          let rebuilt = Db.view_contents reference (Sca.name def) in
          Db.drop_view reference (Sca.name def);
          ignore
            (Db.define_view reference ~index ~tier_limit:Classify.IM_poly_c def);
          check_tuples
            (Sca.name def ^ " ≡ defined afresh over the survivors")
            (Db.view_contents reference (Sca.name def))
            rebuilt)
        (readers reference);
      for k = 1 to !folds do
        let db = setup () in
        let saved = Snapshot.save db in
        let n = ref 0 in
        Db.set_fold_probe db
          (Some
             (fun ~view:_ ~sn:_ ->
               incr n;
               if !n = k then failwith "fold failure"));
        check_raises_any "the failing fold aborts the retraction" (fun () ->
            Db.retract db "mileage" victims);
        Db.set_fold_probe db None;
        check_string
          (Printf.sprintf "fold %d failing leaves the database unchanged" k)
          saved (Snapshot.save db)
      done)
    backings

(* The same over random scenarios: the dropped mileage rows are
   retracted in one call whose failing (entry, view) fold is picked at
   random, on both backings; then the kept rows are
   retracted and the scenario appended again, against a clean run. *)
let prop_retract_rollback (s, pick) =
  let victims =
    List.filter_map
      (fun (chron, r) ->
        if chron = 0 then Some (row (r.acct, r.miles)) else None)
      (to_retract (fun r -> not r.keep) s)
  in
  let run ?fail index =
    let db = mk_db ~index () in
    append_all db s;
    let folds = ref [] in
    (match fail with
    | None -> Db.set_fold_probe db (Some (fun ~view ~sn -> folds := (sn, view) :: !folds))
    | Some (sn', view') ->
        let saved = Snapshot.save db in
        Db.set_fold_probe db
          (Some
             (fun ~view ~sn ->
               if sn = sn' && view = view' then failwith "fold failure"));
        check_raises_any "the failing fold aborts the retraction" (fun () ->
            Db.retract db "mileage" victims);
        if not (String.equal saved (Snapshot.save db)) then
          QCheck.Test.fail_reportf
            "failing fold (%d, %s) changed the database" sn' view';
        Db.set_fold_probe db None);
    ignore (Db.retract db "mileage" victims);
    Db.set_fold_probe db None;
    retract_all db (fun r -> r.keep) s;
    append_all db s;
    (Snapshot.save db, List.sort_uniq compare !folds)
  in
  victims = []
  || List.for_all
       (fun index ->
         let reference, folds = run index in
         let fail = List.nth folds (pick mod List.length folds) in
         let state, _ = run ~fail index in
         String.equal reference state
         || QCheck.Test.fail_reportf "after failing fold (%d, %s) the run diverged"
              (fst fail) (snd fail))
       backings

(* ---- counter pin: a single-row retraction does not read history ---- *)

(* One-row retractions against COUNT/SUM views at two history sizes:
   no stored chronicle tuple is read ([Chronicle_scan] moves by 0), and
   the group lookups do not grow with |C|. *)
let test_retract_cost_independent_of_history () =
  let cost n =
    let db = Db.create () in
    ignore
      (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage"
         Fixtures.mileage_schema);
    let mileage = Ca.Chronicle (Db.chronicle db "mileage") in
    ignore
      (Db.define_view db
         (Sca.define ~name:"balance" ~body:mileage
            (Sca.Group_agg
               ( [ "acct" ],
                 [ Aggregate.sum "miles" "balance"; Aggregate.count_star "n" ]
               ))));
    ignore
      (Db.define_view db ~index:Index.Ordered
         (Sca.define ~name:"fares" ~body:mileage
            (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "fare" "f" ]))));
    let i = ref 0 in
    while !i < n do
      ignore
        (Db.append db "mileage"
           (List.init 8 (fun k -> row ((!i + k) mod 64, !i + k))));
      i := !i + 8
    done;
    let before = Stats.snapshot () in
    let j = n / 2 in
    check_int "one row" 1 (Db.retract db "mileage" [ row (j mod 64, j) ]);
    let after = Stats.snapshot () in
    ( Stats.diff_get before after Stats.Chronicle_scan,
      Stats.diff_get before after Stats.Group_lookup )
  in
  let scan_small, lookup_small = cost 1_000 in
  let scan_large, lookup_large = cost 16_000 in
  check_int "no history read at |C| = 1k" 0 scan_small;
  check_int "no history read at |C| = 16k" 0 scan_large;
  check_int "group lookups independent of |C|" lookup_small lookup_large

(* ---- MIN/MAX re-probes read their groups, not the history ---- *)

(* Account 0 holds exactly 10 rows at two history sizes.  Retracting
   its largest makes the MAX view grouped by [acct] re-probe that group,
   which reads the 9 survivors through the chronicle's index on [acct],
   whatever |C|.  A MAX view grouped by a relation column has no such
   index: retracting the history-wide maximum makes it re-read all of
   history.  Both views then equal the same views defined afresh over
   what is left. *)
let test_retract_reprobe_reads_group () =
  let reprobe n =
    let db = Db.create () in
    ignore
      (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage"
         Fixtures.mileage_schema);
    let cust =
      Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
        ~key:[ "cust" ] ()
    in
    for a = 0 to 63 do
      Versioned.insert cust (tup [ vi a; vs (if a mod 2 = 0 then "NJ" else "NY") ])
    done;
    let mileage = Ca.Chronicle (Db.chronicle db "mileage") in
    let by_acct name =
      Sca.define ~name ~body:mileage
        (Sca.Group_agg
           ([ "acct" ], [ Aggregate.max_ "miles" "hi"; Aggregate.sum "miles" "m" ]))
    and by_state name =
      Sca.define ~name
        ~body:(Ca.KeyJoinRel (mileage, Versioned.relation cust, [ ("acct", "cust") ]))
        (Sca.Group_agg ([ "state" ], [ Aggregate.max_ "miles" "hi" ]))
    in
    ignore (Db.define_view db (by_acct "acct_hi"));
    ignore (Db.define_view db (by_state "state_hi"));
    let acct j = if j mod (n / 10) = 0 then 0 else 1 + (j mod 63) in
    let i = ref 0 in
    while !i < n do
      ignore (Db.append db "mileage" (List.init 8 (fun k -> row (acct (!i + k), !i + k))));
      i := !i + 8
    done;
    let before = Stats.snapshot () in
    check_int "group maximum" 1 (Db.retract db "mileage" [ row (0, 9 * (n / 10)) ]);
    let after = Stats.snapshot () in
    check_int "one group re-probed" 1
      (Stats.diff_get before after Stats.Aggregate_reprobe);
    let scanned = Stats.diff_get before after Stats.Chronicle_scan in
    let before = Stats.snapshot () in
    check_int "history maximum" 1 (Db.retract db "mileage" [ row (acct (n - 1), n - 1) ]);
    let after = Stats.snapshot () in
    check_bool "the state view re-reads history" true
      (Stats.diff_get before after Stats.Chronicle_scan >= n - 2);
    List.iter
      (fun (name, fresh) ->
        ignore (Db.define_view db fresh);
        check_tuples (name ^ " ≡ defined afresh")
          (sorted_tuples (Db.view_contents db (Sca.name fresh)))
          (sorted_tuples (Db.view_contents db name)))
      [ ("acct_hi", by_acct "acct_hi2"); ("state_hi", by_state "state_hi2") ];
    scanned
  in
  check_int "9 rows read at |C| = 1k" 9 (reprobe 1_000);
  check_int "9 rows read at |C| = 16k" 9 (reprobe 16_000)

let suite =
  [
    test "retract: invertible aggregates and counters" test_retract_basic;
    test "retract: requires Full retention" test_retract_requires_full_retention;
    test "retract: absent row aborts atomically" test_retract_absent_row_is_atomic;
    test "retract: claims the newest occurrence" test_retract_claims_newest_occurrence;
    test "retract: MIN/MAX bounded re-probe" test_retract_minmax_reprobe;
    test "retract: union diffs the at-sn slice" test_retract_union_slice_diff;
    test "retract: a difference gains rows" test_retract_diff_gains_rows;
    test "retract: static classification" test_retract_classification;
    test "retract: durable journal round-trip" test_retract_durable_roundtrip;
    test "retract: partial retraction with duplicate rows"
      test_partial_retraction_duplicate_rows;
    qtest ~count:60 "append ∘ retract-all ≡ identity (random order)"
      scenario_arb prop_full_retraction;
    qtest ~count:60 "partial retraction ≡ clean replay of survivors"
      scenario_arb prop_partial_retraction;
    qtest ~count:60 "pure appends never move retraction counters"
      scenario_arb prop_pure_append_zero_counters;
    test "retract: a failing view fold rolls back to the byte"
      test_retract_fold_failure_rolls_back;
    test "retract: history readers are rebuilt, and roll back"
      test_retract_rematerializes_history_readers;
    qtest ~count:40
      "a failing fold at a random (entry, view) rolls back"
      (QCheck.pair scenario_arb QCheck.small_nat)
      prop_retract_rollback;
    test "retract: single-row cost independent of |C| (counter pin)"
      test_retract_cost_independent_of_history;
    test "retract: a MIN/MAX re-probe reads its group, not |C|"
      test_retract_reprobe_reads_group;
  ]
