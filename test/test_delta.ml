open Relational
open Chronicle_core
open Util
open Fixtures

(* Drive [expr] by appending [batches] to the fixture's mileage
   chronicle, collecting the per-batch deltas. *)
let run_deltas fx expr batches =
  List.concat_map
    (fun tuples ->
      let sn = Chron.append fx.mileage tuples in
      let tagged = List.map (Chron.tag sn) tuples in
      Delta.eval expr ~sn ~batch:[ (fx.mileage, tagged) ])
    batches

let batches1 =
  [ [ mile 1 100 10. ]; [ mile 2 200 20.; mile 1 50 5. ]; [ mile 3 0 0. ] ]

let check_delta_equals_recompute name expr_of =
  test name (fun () ->
      let fx = make () in
      let expr = expr_of fx in
      let deltas = run_deltas fx expr batches1 in
      check_tuples "accumulated deltas = full recompute" (Eval.eval expr) deltas)

let test_select_filters () =
  let fx = make () in
  let expr = Ca.Select (Predicate.("miles" >% vi 60), Ca.Chronicle fx.mileage) in
  let deltas = run_deltas fx expr batches1 in
  check_int "only two pass" 2 (List.length deltas)

let test_project_keeps_sn () =
  let fx = make () in
  let expr = Ca.Project ([ Seqnum.attr; "acct" ], Ca.Chronicle fx.mileage) in
  let deltas = run_deltas fx expr batches1 in
  check_tuples "projected"
    [ tup [ vi 1; vi 1 ]; tup [ vi 2; vi 2 ]; tup [ vi 2; vi 1 ]; tup [ vi 3; vi 3 ] ]
    deltas

let test_union_dedups_within_batch () =
  let fx = make () in
  (* both branches select the same base: identical delta tuples must
     merge (set union, per the appendix) *)
  let expr =
    Ca.Union
      ( Ca.Select (Predicate.("miles" >% vi 0), Ca.Chronicle fx.mileage),
        Ca.Select (Predicate.("fare" >% vf 0.), Ca.Chronicle fx.mileage) )
  in
  let sn = Chron.append fx.mileage [ mile 1 100 10. ] in
  let tagged = List.map (Chron.tag sn) [ mile 1 100 10. ] in
  let delta = Delta.eval expr ~sn ~batch:[ (fx.mileage, tagged) ] in
  check_int "one tuple, not two" 1 (List.length delta)

let test_diff_within_batch () =
  let fx = make () in
  let expr =
    Ca.Diff
      ( Ca.Chronicle fx.mileage,
        Ca.Select (Predicate.("miles" >% vi 150), Ca.Chronicle fx.mileage) )
  in
  let deltas = run_deltas fx expr batches1 in
  (* miles > 150 removed: the 200-mile posting disappears *)
  check_int "three of four remain" 3 (List.length deltas);
  check_tuples "matches recompute" (Eval.eval expr) deltas

let test_seqjoin_same_batch_only () =
  let fx = make () in
  let left = Ca.Project ([ Seqnum.attr; "acct" ], Ca.Chronicle fx.mileage) in
  let right = Ca.Project ([ Seqnum.attr; "miles" ], Ca.Chronicle fx.bonus) in
  let expr = Ca.SeqJoin (left, right) in
  (* batch 1: both chronicles; batch 2: mileage only (no join partner) *)
  let sn1 =
    Chron.append_multi fx.group
      [ (fx.mileage, [ mile 1 100 10. ]); (fx.bonus, [ mile 1 500 0. ]) ]
  in
  let d1 =
    Delta.eval expr ~sn:sn1
      ~batch:
        [
          (fx.mileage, [ Chron.tag sn1 (mile 1 100 10.) ]);
          (fx.bonus, [ Chron.tag sn1 (mile 1 500 0.) ]);
        ]
  in
  check_tuples "joined on sn" [ tup [ vi 1; vi 1; vi 500 ] ] d1;
  let sn2 = Chron.append fx.mileage [ mile 2 200 20. ] in
  let d2 =
    Delta.eval expr ~sn:sn2 ~batch:[ (fx.mileage, [ Chron.tag sn2 (mile 2 200 20.) ]) ]
  in
  check_tuples "no partner, empty delta" [] d2;
  (* and the accumulated state matches recompute *)
  check_tuples "recompute agrees" (Eval.eval expr) (d1 @ d2)

let test_groupby_seq () =
  let fx = make () in
  let expr =
    Ca.GroupBySeq
      ( [ Seqnum.attr; "acct" ],
        [ Aggregate.sum "miles" "m"; Aggregate.count_star "n" ],
        Ca.Chronicle fx.mileage )
  in
  let sn = Chron.append fx.mileage [ mile 1 100 10.; mile 1 50 5.; mile 2 70 7. ] in
  let tagged = List.map (Chron.tag sn) [ mile 1 100 10.; mile 1 50 5.; mile 2 70 7. ] in
  let delta = Delta.eval expr ~sn ~batch:[ (fx.mileage, tagged) ] in
  check_tuples "fresh groups"
    [ tup [ vi 1; vi 1; vi 150; vi 2 ]; tup [ vi 1; vi 2; vi 70; vi 1 ] ]
    delta

let test_product_rel_uses_current_version () =
  let fx = make () in
  let expr = keyjoin_body fx in
  (* Example 2.2: acct 1 starts in NJ, moves to NY proactively; each
     posting sees the version current at its sequence number *)
  let sn1 = Chron.append fx.mileage [ mile 1 100 10. ] in
  let d1 = Delta.eval expr ~sn:sn1 ~batch:[ (fx.mileage, [ Chron.tag sn1 (mile 1 100 10.) ]) ] in
  check_tuples "sees NJ" [ tup [ vi 1; vi 1; vi 100; vf 10.; vs "NJ" ] ] d1;
  (* the move *)
  let row = List.hd (Relation.lookup_rows fx.customers ~attrs:[ "cust" ] [ vi 1 ]) in
  Relation.update fx.customers row (tup [ vi 1; vs "NY" ]);
  let sn2 = Chron.append fx.mileage [ mile 1 60 6. ] in
  let d2 = Delta.eval expr ~sn:sn2 ~batch:[ (fx.mileage, [ Chron.tag sn2 (mile 1 60 6.) ]) ] in
  check_tuples "sees NY" [ tup [ vi 2; vi 1; vi 60; vf 6.; vs "NY" ] ] d2

let test_keyjoin_probes_not_scans () =
  let fx = make () in
  let expr = keyjoin_body fx in
  let sn = Chron.append fx.mileage [ mile 1 100 10. ] in
  let before = Stats.snapshot () in
  ignore (Delta.eval expr ~sn ~batch:[ (fx.mileage, [ Chron.tag sn (mile 1 100 10.) ]) ]);
  let after = Stats.snapshot () in
  check_int "no chronicle access" 0 (Stats.diff_get before after Stats.Chronicle_scan);
  check_bool "constant probes" true (Stats.diff_get before after Stats.Index_probe <= 2)

let test_ca_never_scans_chronicle () =
  let fx = make () in
  let exprs =
    [
      select_body fx;
      product_body fx;
      Ca.Union (Ca.Chronicle fx.mileage, Ca.Chronicle fx.bonus);
      Ca.Diff (Ca.Chronicle fx.mileage, Ca.Chronicle fx.bonus);
      Ca.GroupBySeq
        ([ Seqnum.attr; "acct" ], [ Aggregate.sum "miles" "m" ], Ca.Chronicle fx.mileage);
    ]
  in
  (* warm history so a scan would be visible *)
  for i = 1 to 20 do
    ignore (Chron.append fx.mileage [ mile (i mod 4 + 1) i 1. ])
  done;
  let sn = Chron.append fx.mileage [ mile 1 10 1. ] in
  let batch = [ (fx.mileage, [ Chron.tag sn (mile 1 10 1.) ]) ] in
  let before = Stats.snapshot () in
  List.iter (fun e -> ignore (Delta.eval e ~sn ~batch)) exprs;
  let after = Stats.snapshot () in
  check_int "Theorem 4.2: CA maintenance reads no chronicle history" 0
    (Stats.diff_get before after Stats.Chronicle_scan)

let test_cross_chron_scans_history () =
  let fx = make () in
  let expr =
    Ca.CrossChron (Ca.Chronicle fx.mileage, Ca.Chronicle fx.bonus)
  in
  ignore (Chron.append fx.bonus [ mile 9 500 0. ]);
  ignore (Chron.append fx.bonus [ mile 9 600 0. ]);
  let sn = Chron.append fx.mileage [ mile 1 100 10. ] in
  let batch = [ (fx.mileage, [ Chron.tag sn (mile 1 100 10.) ]) ] in
  let before = Stats.snapshot () in
  let delta = Delta.eval expr ~sn ~batch in
  let after = Stats.snapshot () in
  check_int "pairs with all old bonus tuples" 2 (List.length delta);
  check_bool "Theorem 4.3: history was scanned" true
    (Stats.diff_get before after Stats.Chronicle_scan > 0);
  (* and the accumulated result still matches recompute *)
  check_tuples "correct, just expensive" (Eval.eval expr)
    (Eval.eval_before expr sn @ delta)

let test_all_fresh () =
  let fx = make () in
  let expr = select_body fx in
  let sn = Chron.append fx.mileage [ mile 1 100 10.; mile 2 1 1. ] in
  let tagged = List.map (Chron.tag sn) [ mile 1 100 10.; mile 2 1 1. ] in
  let delta = Delta.eval expr ~sn ~batch:[ (fx.mileage, tagged) ] in
  check_bool "Thm 4.1: delta carries only fresh sns" true
    (Delta.all_fresh (Ca.schema_of expr) sn delta);
  check_bool "stale detection works" false
    (Delta.all_fresh (Ca.schema_of expr) (sn + 1) delta)

(* ---- randomized equivalence: Δ-accumulation = full recomputation ---- *)

let gen_pred =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Predicate.("miles" >% vi k)) (int_bound 300);
        map (fun k -> Predicate.("acct" =% vi (k + 1))) (int_bound 4);
        map (fun f -> Predicate.("fare" <% vf f)) (float_bound_inclusive 30.);
        map2
          (fun k1 k2 ->
            Predicate.(Or ("acct" =% vi (k1 + 1), "miles" >% vi k2)))
          (int_bound 4) (int_bound 300);
      ])

(* Random CA expressions over the two fixture chronicles, kept
   union-compatible (mileage-shaped) below an optional summarizing top. *)
let gen_expr fx =
  let open QCheck.Gen in
  let base = oneofl [ Ca.Chronicle fx.mileage; Ca.Chronicle fx.bonus ] in
  let rec body n =
    if n = 0 then base
    else
      frequency
        [
          (2, base);
          (3, map2 (fun p e -> Ca.Select (p, e)) gen_pred (body (n - 1)));
          (2, map2 (fun a b -> Ca.Union (a, b)) (body (n - 1)) (body (n - 1)));
          (2, map2 (fun a b -> Ca.Diff (a, b)) (body (n - 1)) (body (n - 1)));
        ]
  in
  let top e =
    oneofl
      [
        e;
        Ca.GroupBySeq
          ([ Seqnum.attr; "acct" ], [ Aggregate.sum "miles" "m" ], e);
        Ca.KeyJoinRel (e, fx.customers, [ ("acct", "cust") ]);
        Ca.Project ([ Seqnum.attr; "acct"; "miles" ], e);
      ]
  in
  body 3 >>= top

let gen_stream =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (pair bool
         (list_size (int_range 1 3)
            (triple (int_range 1 5) (int_bound 300) (float_bound_inclusive 30.)))))

let qcheck_delta_equals_recompute =
  let gen =
    QCheck.make
      ~print:(fun (_, stream) -> Printf.sprintf "<expr> with %d batches" (List.length stream))
      QCheck.Gen.(
        (* fixture must be created inside the property, so generate only
           the recipe here: an int seed to pick the expression *)
        pair (int_bound 1_000_000) gen_stream)
  in
  qtest ~count:150 "random CA expression: Δ-accumulation = recompute" gen
    (fun (seed, stream) ->
      let fx = make () in
      let expr = QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) (gen_expr fx) in
      let deltas =
        List.concat_map
          (fun (to_bonus, tuples) ->
            let tuples = List.map (fun (a, m, f) -> mile a m f) tuples in
            let chron = if to_bonus then fx.bonus else fx.mileage in
            let sn = Chron.append chron tuples in
            let tagged = List.map (Chron.tag sn) tuples in
            Delta.eval expr ~sn ~batch:[ (chron, tagged) ])
          stream
      in
      let full = Eval.eval expr in
      List.equal Tuple.equal (sorted_tuples deltas) (sorted_tuples full)
      &&
      (* Theorem 4.1 on every accumulated delta: only fresh sns — checked
         against the final watermark being an upper bound *)
      match Schema.pos_opt (Ca.schema_of expr) Seqnum.attr with
      | None -> true
      | Some pos ->
          List.for_all
            (fun tu -> Seqnum.of_value (Tuple.get tu pos) <= Group.watermark fx.group)
            deltas)

(* ---- shared key-join stages ---- *)

let far fx = Ca.Select (Predicate.("miles" >% vi 20), Ca.Chronicle fx.mileage)

(* Plans compiled through one table share a stage when chronicle,
   relation, join pairs and the σ/Π chain below the join agree; a σ
   above the join does not matter, a key join under a non-linear
   operator is not interned, and a stage leaves the table with its last
   claim. *)
let test_stage_interning () =
  let fx = make () in
  let st = Delta.stages () in
  let kj below = Ca.KeyJoinRel (below, fx.customers, [ ("acct", "cust") ]) in
  let p1 = Delta.compile ~stages:st (kj (far fx)) in
  let p2 = Delta.compile ~stages:st (Ca.Select (Predicate.("state" =% vs "NJ"), kj (far fx))) in
  check_bool "same chain below: one stage" true (Delta.stage_consumers st = [ 2 ]);
  let p3 = Delta.compile ~stages:st (kj (Ca.Chronicle fx.mileage)) in
  check_bool "another chain: a second stage" true (Delta.stage_consumers st = [ 2; 1 ]);
  ignore (Delta.compile ~stages:st (Ca.Union (kj (far fx), kj (far fx))));
  ignore (Delta.compile (kj (far fx)));
  check_bool "under ∪ or without a table: not interned" true
    (Delta.stage_consumers st = [ 2; 1 ]);
  Delta.release st p1;
  check_bool "one claim left" true (Delta.stage_consumers st = [ 1; 1 ]);
  Delta.release st p2;
  Delta.release st p3;
  check_bool "no stage outlives its last claim" true (Delta.stage_consumers st = [])

let shared_plans fx n =
  let st = Delta.stages () in
  let body = Ca.KeyJoinRel (far fx, fx.customers, [ ("acct", "cust") ]) in
  List.init n (fun i ->
      Delta.compile ~stages:st
        (if i mod 2 = 0 then body else Ca.Select (Predicate.("state" =% vs "NJ"), body)))

(* Each consumer as a chain of the pool: its collected output, or its
   failure. *)
let run_consumers pool plans ~sn ~memo change =
  let plans = Array.of_list plans in
  let outs = Array.make (Array.length plans) Delta.{ plus = []; minus = [] } in
  let failures =
    Exec.Pool.run_chains pool
      (Array.mapi
         (fun i plan -> [| (fun () -> outs.(i) <- Delta.run plan ~sn ~memo change) |])
         plans)
  in
  (outs, failures)

(* An entry's memo runs a shared stage once — one probe per Δ tuple —
   whichever domain gets there first, and every consumer reads the
   output its own unshared plan would stream. *)
let test_memo_one_probe_per_tuple () =
  let fx = make () in
  let plans = shared_plans fx 8 in
  let alone = List.map (fun p -> Delta.compile (Delta.expr p)) plans in
  List.iter
    (fun jobs ->
      let pool = Exec.Pool.create ~jobs () in
      for sn = 1 to 30 do
        let rows =
          List.init 20 (fun i -> Chron.tag sn (mile (((i + sn) mod 5) + 1) (((i * 7) + sn) mod 50) 1.))
        in
        let minus = List.filteri (fun i _ -> i mod 3 = 0) rows in
        let change = [ (fx.mileage, Delta.{ plus = rows; minus }) ] in
        let before = Stats.snapshot () in
        let outs, failures = run_consumers pool plans ~sn ~memo:(Delta.memo plans) change in
        let after = Stats.snapshot () in
        check_bool "no failure" true (Array.for_all Option.is_none failures);
        check_int
          (Printf.sprintf "one probe per Δ tuple (jobs %d)" jobs)
          (List.length (List.filter (fun tu -> Tuple.get tu 2 > vi 20) (rows @ minus)))
          (Stats.diff_get before after Stats.Light_fold);
        List.iteri
          (fun i p ->
            check_bool "consumer output = its unshared plan's" true
              (outs.(i) = Delta.run p ~sn change))
          alone
      done)
    [ 1; 2; 4 ]

(* A stage that raises keeps the exception in the cell: every consumer
   re-raises the same one, at any parallelism, and the stage ran once. *)
let test_memo_failure_shared () =
  let fx = make () in
  let plans = shared_plans fx 4 in
  let change =
    [ (fx.mileage, Delta.{ plus = [ Chron.tag 1 (mile 1 30 1.); tup [ vi 1 ] ]; minus = [] }) ]
  in
  List.iter
    (fun jobs ->
      let pool = Exec.Pool.create ~jobs () in
      let before = Stats.snapshot () in
      let _, failures = run_consumers pool plans ~sn:1 ~memo:(Delta.memo plans) change in
      let after = Stats.snapshot () in
      check_int "the stage ran once" 1 (Stats.diff_get before after Stats.Light_fold);
      match failures.(0) with
      | None -> Alcotest.fail "the malformed tuple did not raise"
      | Some e ->
          check_bool
            (Printf.sprintf "every consumer re-raises the one failure (jobs %d)" jobs)
            true
            (Array.for_all (function Some e' -> e' == e | None -> false) failures))
    [ 1; 2; 4 ]

let suite =
  [
    check_delta_equals_recompute "base chronicle: deltas = recompute" (fun fx ->
        Ca.Chronicle fx.mileage);
    check_delta_equals_recompute "selection: deltas = recompute" select_body;
    check_delta_equals_recompute "key join: deltas = recompute" keyjoin_body;
    check_delta_equals_recompute "product: deltas = recompute" product_body;
    test "selection filters the delta" test_select_filters;
    test "projection retains sn" test_project_keeps_sn;
    test "union dedups within a batch" test_union_dedups_within_batch;
    test "difference within a batch" test_diff_within_batch;
    test "sequence join pairs same-sn tuples only" test_seqjoin_same_batch_only;
    test "grouping with sn creates fresh groups" test_groupby_seq;
    test "temporal join sees the current relation version" test_product_rel_uses_current_version;
    test "key join: index probes, no scans" test_keyjoin_probes_not_scans;
    test "CA maintenance never scans the chronicle" test_ca_never_scans_chronicle;
    test "chronicle cross product must scan history" test_cross_chron_scans_history;
    test "Thm 4.1 freshness check" test_all_fresh;
    qcheck_delta_equals_recompute;
    test "key-join stages: interned by chain, released with the last claim"
      test_stage_interning;
    test "entry memo: one probe per Δ tuple for all consumers (jobs 1/2/4)"
      test_memo_one_probe_per_tuple;
    test "entry memo: a stage failure is re-raised to every consumer"
      test_memo_failure_shared;
  ]
