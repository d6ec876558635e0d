(* Physical plans (Plan / Delta.compile / View.plan):

   1. compiled plans are observationally equal to the naive interpreter
      on randomized expression trees over workload data (the oracle is
      [Ra.eval_naive], kept for exactly this purpose);
   2. [Ra.eval] really is the compiled pipeline (guards the forward
      reference installed at library initialization);
   3. select-pushdown answers indexed equality selections with an index
      scan instead of a full scan + filter;
   4. equi-join build tables are reused across executions and
      invalidated by [Relation.version] bumps;
   5. the per-view plan cache: miss + compile at registration, pure
      hits during steady-state maintenance (with zero per-batch
      predicate/projector compilations), miss + recompile after
      redefinition. *)

open Relational
open Chronicle_core
open Chronicle_workload
open Util

(* ---- randomized expression trees over workload data ---- *)

let kinds = [| "deposit"; "withdrawal" |]

let txn_rel rng =
  let rel = Relation.create ~name:"txns" ~schema:Banking.txn_schema () in
  let zipf = Zipf.create ~n:40 ~s:1.0 in
  for _ = 1 to 60 do
    ignore (Relation.insert rel (Banking.txn rng zipf))
  done;
  rel

let account_rel rng =
  let rel =
    Relation.create ~name:"accounts" ~schema:Banking.account_schema
      ~key:[ "acct" ] ()
  in
  Relation.insert_all rel (Banking.accounts rng ~n:40);
  rel

let random_const rng (ty : Value.ty) =
  match ty with
  | Value.TInt -> Value.Int (Rng.int rng 45)
  | Value.TFloat -> Value.Float (Rng.float rng 500.)
  | Value.TStr -> Value.Str (Rng.pick rng kinds)
  | Value.TBool -> Value.Bool (Rng.bool rng)

let random_pred rng schema =
  let attrs = Schema.attrs schema in
  let attr = attrs.(Rng.int rng (Array.length attrs)) in
  let op =
    Rng.pick rng
      [| Predicate.Eq; Predicate.Ne; Predicate.Le; Predicate.Lt;
         Predicate.Gt; Predicate.Ge |]
  in
  Predicate.Cmp
    (Predicate.Attr attr.Schema.name, op, Predicate.Const (random_const rng attr.Schema.ty))

let random_subset rng names =
  match List.filter (fun _ -> Rng.bool rng) names with
  | [] -> [ List.nth names (Rng.int rng (List.length names)) ]
  | some -> some

(* Grow a random tree; every candidate is validated with [Ra.schema_of]
   and discarded (keeping the child) when ill-formed, so the generator
   never commits to an untypeable expression. *)
let gen_expr rng ~accounts ~base ~depth =
  let fresh = ref 0 in
  let try_node child candidate =
    match Ra.schema_of candidate with
    | _ -> candidate
    | exception (Ra.Type_error _ | Schema.Duplicate_attribute _) -> child
  in
  let rec go depth =
    let base_case () =
      if Rng.bool rng then base
      else Ra.Select (random_pred rng (Ra.schema_of base), base)
    in
    if depth = 0 then base_case ()
    else
      let child = go (depth - 1) in
      let s = Ra.schema_of child in
      match Rng.int rng 10 with
      | 0 -> try_node child (Ra.Select (random_pred rng s, child))
      | 1 -> try_node child (Ra.Project (random_subset rng (Schema.names s), child))
      | 2 -> Ra.Distinct child
      | 3 ->
          incr fresh;
          let victim = List.nth (Schema.names s) (Rng.int rng (Schema.arity s)) in
          try_node child
            (Ra.Rename ([ (victim, Printf.sprintf "r%d" !fresh) ], child))
      | 4 ->
          incr fresh;
          Ra.Prefix (Printf.sprintf "p%d" !fresh, child)
      | 5 ->
          let gl = random_subset rng (Schema.names s) in
          let aggs = [ Aggregate.count_star "n" ] in
          try_node child (Ra.GroupBy (gl, aggs, child))
      | 6 ->
          let p1 = random_pred rng s and p2 = random_pred rng s in
          Ra.Union (Ra.Select (p1, child), Ra.Select (p2, child))
      | 7 ->
          let p1 = random_pred rng s and p2 = random_pred rng s in
          Ra.Diff (Ra.Select (p1, child), Ra.Select (p2, child))
      | 8 ->
          incr fresh;
          try_node child
            (Ra.Product (child, Ra.Prefix (Printf.sprintf "q%d" !fresh, Ra.Rel accounts)))
      | _ ->
          try_node child
            (Ra.EquiJoin ([ ("acct", "acct") ], child, Ra.Rel accounts))
  in
  go depth

let prop_compiled_equals_naive () =
  let rng = Rng.create 20260806 in
  for i = 1 to 300 do
    let data_rng = Rng.split rng in
    let accounts = account_rel data_rng in
    let base = Ra.Rel (txn_rel data_rng) in
    let expr = gen_expr rng ~accounts ~base ~depth:(1 + Rng.int rng 5) in
    let plan = Plan.compile expr in
    let expected = Ra.eval_naive expr in
    let got = Plan.run plan in
    if not (List.equal Tuple.equal got expected) then
      Alcotest.failf "tree %d: plan ≠ naive for %a@ (plan: %d rows, naive: %d rows)"
        i Ra.pp expr (List.length got) (List.length expected);
    if not (Schema.equal (Plan.schema plan) (Ra.schema_of expr)) then
      Alcotest.failf "tree %d: plan schema ≠ static schema for %a" i Ra.pp expr;
    (* a second run over unchanged relations must be stable (exercises
       the build-table reuse path inside equi-joins) *)
    if not (List.equal Tuple.equal (Plan.run plan) expected) then
      Alcotest.failf "tree %d: second run diverged for %a" i Ra.pp expr
  done

(* ---- randomized trees over indexed bases: sequential ≡ naive ----

   The differential layer for the index-probe pushdown.  The base
   relation carries a non-unique hash index on "kind" and an ordered
   (B+-tree) index on "acct", and every tree's base is an equality
   selection on one of the two — the shape the pushdown answers with
   one probe.  Each tree is checked, tuples AND order, against the
   naive interpreter; across the corpus the plans must actually have
   taken the probe path ([Index_scan] fired).  (The test keeps its
   historical name: "ranged" once named a range-split parallel plan
   that no longer exists.) *)

let indexed_txn_rel rng =
  let rel = txn_rel rng in
  Relation.create_index rel Index.Hash [ "kind" ];
  Relation.create_index rel Index.Ordered [ "acct" ];
  rel

let prop_ranged_equals_naive_indexed () =
  let rng = Rng.create 816 in
  let scans = ref 0 in
  for i = 1 to 120 do
    let data_rng = Rng.split rng in
    let accounts = account_rel data_rng in
    let rel = indexed_txn_rel data_rng in
    (* the tree's base: an equality-selective predicate on an indexed
       attribute (hash on "kind", ordered on "acct") *)
    let base =
      if Rng.bool rng then
        Ra.Select (Predicate.("kind" =% vs (Rng.pick rng kinds)), Ra.Rel rel)
      else Ra.Select (Predicate.("acct" =% vi (Rng.int rng 45)), Ra.Rel rel)
    in
    let expr = gen_expr rng ~accounts ~base ~depth:(1 + Rng.int rng 4) in
    let expected = Ra.eval_naive expr in
    let before = Stats.snapshot () in
    let got = Plan.run (Plan.compile expr) in
    let after = Stats.snapshot () in
    scans := !scans + Stats.diff_get before after Stats.Index_scan;
    if not (List.equal Tuple.equal got expected) then
      Alcotest.failf "tree %d: sequential plan ≠ naive for %a" i Ra.pp expr
  done;
  check_bool "index pushdown fired across the corpus" true (!scans > 0)

(* ---- Ra.eval dispatches to the compiled pipeline ---- *)

let ra_eval_is_compiled () =
  let rng = Rng.create 7 in
  let rel = txn_rel rng in
  let before = Stats.snapshot () in
  ignore (Ra.eval (Ra.Select (Predicate.("amount" >% vf 0.), Ra.Rel rel)));
  let after = Stats.snapshot () in
  check_bool "Ra.eval compiles a plan" true
    (Stats.diff_get before after Stats.Plan_compile >= 1)

(* ---- select pushdown ---- *)

let index_pushdown () =
  let rng = Rng.create 11 in
  let rel = account_rel rng in
  (* key [acct] carries a hash index: the equality conjunct becomes a
     probe, the rest a residual filter *)
  let expr =
    Ra.Select
      ( Predicate.And
          (Predicate.("acct" =% vi 3), Predicate.("branch" <>% vs "nowhere")),
        Ra.Rel rel )
  in
  let plan = Plan.compile expr in
  let before = Stats.snapshot () in
  let got = Plan.run plan in
  let after = Stats.snapshot () in
  check_tuples "index scan ≡ naive" (Ra.eval_naive expr) got;
  check_int "one index scan" 1 (Stats.diff_get before after Stats.Index_scan);
  check_bool "no full scan: tuples read ≪ |R|" true
    (Stats.diff_get before after Stats.Tuple_read < Relation.cardinality rel);
  (* no covering index ⇒ falls back to scan + filter *)
  let fallback = Ra.Select (Predicate.("name" =% vs "acct-3"), Ra.Rel rel) in
  let before = Stats.snapshot () in
  check_tuples "fallback ≡ naive" (Ra.eval_naive fallback)
    (Plan.run (Plan.compile fallback));
  let after = Stats.snapshot () in
  check_int "no index scan without a covering index" 0
    (Stats.diff_get before after Stats.Index_scan)

(* ---- build-table reuse and invalidation ---- *)

let build_table_reuse () =
  let rng = Rng.create 13 in
  let accounts = account_rel rng in
  let txns = txn_rel rng in
  let expr = Ra.EquiJoin ([ ("acct", "acct") ], Ra.Rel txns, Ra.Rel accounts) in
  let plan = Plan.compile expr in
  let r1 = Plan.run plan in
  let before = Stats.snapshot () in
  let r2 = Plan.run plan in
  let after = Stats.snapshot () in
  check_tuples "stable across runs" r1 r2;
  check_int "build table reused" 1 (Stats.diff_get before after Stats.Build_reuse);
  (* mutating the build relation invalidates the table *)
  ignore
    (Relation.insert accounts (tup [ vi 999; vs "acct-999"; vs "branch-0" ]));
  ignore (Relation.insert txns (tup [ vi 999; vs "deposit"; vf 10. ]));
  let before = Stats.snapshot () in
  let r3 = Plan.run plan in
  let after = Stats.snapshot () in
  check_int "version bump forces rebuild" 0
    (Stats.diff_get before after Stats.Build_reuse);
  check_tuples "rebuild sees the new rows" (Ra.eval_naive expr) r3;
  let before = Stats.snapshot () in
  ignore (Plan.run plan);
  let after = Stats.snapshot () in
  check_int "reused again once versions settle" 1
    (Stats.diff_get before after Stats.Build_reuse)

(* ---- the per-view plan cache on the transaction path ---- *)

let sum_def db name =
  let chron = Ca.Chronicle (Db.chronicle db "txns") in
  Sca.define ~name
    ~body:(Ca.Select (Predicate.("amount" >=% vf (-1e9)), chron))
    (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "amount" "balance" ]))

let view_plan_cache () =
  let db = Db.create () in
  (* full retention so the drop+redefine below can re-initialize from
     history *)
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"txns" Banking.txn_schema);
  let before = Stats.snapshot () in
  ignore (Db.define_view db (sum_def db "balance"));
  let after = Stats.snapshot () in
  check_bool "registration compiles the Δ-plan" true
    (Stats.diff_get before after Stats.Plan_compile >= 1);
  check_bool "registration is the cache miss" true
    (Stats.diff_get before after Stats.Plan_cache_miss >= 1);
  (* steady state: every append is a pure cache hit with zero
     recompilation — the acceptance criterion of the plan-cache work *)
  let rng = Rng.create 3 and zipf = Zipf.create ~n:10 ~s:1.0 in
  ignore (Db.append db "txns" [ Banking.txn rng zipf ]);
  let before = Stats.snapshot () in
  for _ = 1 to 10 do
    ignore (Db.append db "txns" [ Banking.txn rng zipf ])
  done;
  let after = Stats.snapshot () in
  check_int "10 appends = 10 plan-cache hits" 10
    (Stats.diff_get before after Stats.Plan_cache_hit);
  check_int "zero plan compiles per batch" 0
    (Stats.diff_get before after Stats.Plan_compile);
  check_int "zero predicate compiles per batch" 0
    (Stats.diff_get before after Stats.Predicate_compile);
  check_int "zero projector compiles per batch" 0
    (Stats.diff_get before after Stats.Projector_compile);
  (* redefinition invalidates: drop + define recompiles *)
  Db.drop_view db "balance";
  let before = Stats.snapshot () in
  ignore (Db.define_view db (sum_def db "balance"));
  let after = Stats.snapshot () in
  check_bool "redefinition recompiles" true
    (Stats.diff_get before after Stats.Plan_compile >= 1);
  check_bool "redefinition is a fresh miss" true
    (Stats.diff_get before after Stats.Plan_cache_miss >= 1);
  (* and the recompiled view still maintains correctly *)
  ignore (Db.append db "txns" [ tup [ vi 1; vs "deposit"; vf 5.0 ] ]);
  match Db.summary db ~view:"balance" [ vi 1 ] with
  | None -> Alcotest.fail "redefined view lost its key"
  | Some _ -> ()

let maintenance_equals_recompute () =
  (* end-to-end: cached-plan maintenance reproduces full recomputation *)
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"txns" Banking.txn_schema);
  let view = Db.define_view db (sum_def db "balance") in
  let rng = Rng.create 5 and zipf = Zipf.create ~n:20 ~s:1.0 in
  for _ = 1 to 50 do
    ignore (Db.append db "txns" [ Banking.txn rng zipf ])
  done;
  let def = View.def view in
  check_tuples "incremental ≡ recompute"
    (Sca.eval_summarize def (Eval.eval (Sca.body def)))
    (View.to_list view)

let suite =
  [
    test "compiled ≡ naive on random trees" prop_compiled_equals_naive;
    test "ranged ≡ sequential ≡ naive on indexed trees"
      prop_ranged_equals_naive_indexed;
    test "Ra.eval is the compiled pipeline" ra_eval_is_compiled;
    test "select pushdown uses the index" index_pushdown;
    test "build table reuse + invalidation" build_table_reuse;
    test "per-view plan cache hit/miss/redefine" view_plan_cache;
    test "cached-plan maintenance ≡ recompute" maintenance_equals_recompute;
  ]
