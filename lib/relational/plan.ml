(* Physical query plans: one-time analysis of an [Ra.t] expression into
   a closure tree that executes with zero per-call recompilation.

   [Ra.eval_naive] pays, on every invocation, for work that depends only
   on the expression: [schema_of] at every node, [Predicate.compile] for
   every selection/theta-join, [Tuple.projector] for every projection,
   and a fresh hash table for every equi-join build side.  [compile]
   performs all of that once and additionally

   - pushes conjunctive equality selections over base relations into
     index probes ([Stats.Index_scan]) when a covering index exists, and
   - memoizes equi-join build tables across executions of the same plan,
     keyed by the versions of the relations beneath the build side
     ([Stats.Build_reuse]); any mutation bumps [Relation.version] and
     invalidates the table.

   The chronicle layer compiles each persistent view once and replays
   the plan per appended batch, which is what turns the paper's
   maintenance-complexity classes into small measured constants. *)

module Tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

type t = { source : Ra.t; schema : Schema.t; exec : unit -> Tuple.t list }

let schema t = t.schema
let source t = t.source
let run t = t.exec ()
let pp ppf t = Ra.pp ppf t.source

(* ---- select pushdown analysis ---- *)

(* Peel nested selections down to a base-relation scan. *)
let rec select_target preds = function
  | Ra.Select (p, e) -> select_target (p :: preds) e
  | Ra.Rel r -> Some (r, preds)
  | _ -> None

let rec conjuncts acc = function
  | Predicate.And (p, q) -> conjuncts (conjuncts acc q) p
  | p -> p :: acc

let eq_const = function
  | Predicate.Cmp (Predicate.Attr a, Predicate.Eq, Predicate.Const v)
  | Predicate.Cmp (Predicate.Const v, Predicate.Eq, Predicate.Attr a) ->
      Some (a, v)
  | _ -> None

(* Choose the widest index of [rel] whose every attribute is bound by an
   equality atom; returns the index attrs, their key values, and the
   residual conjuncts (unconsumed atoms, one consumed per index attr). *)
let choose_index rel atoms =
  let bound = List.filter_map (fun p -> Option.map (fun eq -> (p, eq)) (eq_const p)) atoms in
  let usable attrs =
    List.for_all (fun a -> List.exists (fun (_, (b, _)) -> String.equal a b) bound) attrs
  in
  let best =
    List.fold_left
      (fun acc attrs ->
        if usable attrs then
          match acc with
          | Some prev when List.length prev >= List.length attrs -> acc
          | _ -> Some attrs
        else acc)
      None (Relation.indexed_attrs rel)
  in
  match best with
  | None -> None
  | Some attrs ->
      (* consume one bound atom per index attribute, in order *)
      let consumed = ref [] in
      let key =
        List.map
          (fun a ->
            let p, (_, v) =
              List.find
                (fun (p, (b, _)) ->
                  String.equal a b && not (List.memq p !consumed))
                bound
            in
            consumed := p :: !consumed;
            v)
          attrs
      in
      let residual = List.filter (fun p -> not (List.memq p !consumed)) atoms in
      Some (attrs, key, residual)

(* Relations occurring beneath an expression (for version-keyed build
   caching; an expression without relations is constant once compiled). *)
let rec rels_of acc = function
  | Ra.Rel r -> r :: acc
  | Ra.Const _ -> acc
  | Ra.Select (_, e)
  | Ra.Project (_, e)
  | Ra.GroupBy (_, _, e)
  | Ra.Rename (_, e)
  | Ra.Prefix (_, e)
  | Ra.Distinct e ->
      rels_of acc e
  | Ra.Product (l, r)
  | Ra.EquiJoin (_, l, r)
  | Ra.ThetaJoin (_, l, r)
  | Ra.Union (l, r)
  | Ra.Diff (l, r) ->
      rels_of (rels_of acc l) r

(* ---- compilation ---- *)

let rec comp expr : Schema.t * (unit -> Tuple.t list) =
  (* [Ra.schema_of] both resolves this node's schema and performs the
     static checks the interpreter would have raised lazily. *)
  let schema = Ra.schema_of expr in
  let exec =
    match expr with
    | Ra.Rel r -> fun () -> Relation.to_list r
    | Ra.Const (_, tuples) -> fun () -> tuples
    | Ra.Select (p, e) -> (
        match select_target [ p ] e with
        | Some (rel, preds) -> compile_rel_select rel preds
        | None ->
            let child_schema, child = comp e in
            let keep = Predicate.compile child_schema p in
            fun () ->
              List.filter
                (fun tu ->
                  Stats.incr Stats.Tuple_read;
                  keep tu)
                (child ()))
    | Ra.Project (attrs, e) ->
        let child_schema, child = comp e in
        let proj = Tuple.projector child_schema attrs in
        fun () -> List.map proj (child ())
    | Ra.Product (l, r) ->
        let _, lexec = comp l and _, rexec = comp r in
        fun () ->
          let rt = rexec () in
          List.concat_map
            (fun ltu ->
              List.map
                (fun rtu ->
                  Stats.incr Stats.Tuple_read;
                  Tuple.concat ltu rtu)
                rt)
            (lexec ())
    | Ra.EquiJoin (pairs, l, r) -> compile_equijoin pairs l r
    | Ra.ThetaJoin (p, l, r) ->
        let keep = Predicate.compile schema p in
        let _, lexec = comp l and _, rexec = comp r in
        fun () ->
          let rt = rexec () in
          List.concat_map
            (fun ltu ->
              List.filter_map
                (fun rtu ->
                  Stats.incr Stats.Tuple_read;
                  let tu = Tuple.concat ltu rtu in
                  if keep tu then Some tu else None)
                rt)
            (lexec ())
    | Ra.Union (l, r) ->
        let _, lexec = comp l and _, rexec = comp r in
        fun () -> Tuple.dedup (lexec () @ rexec ())
    | Ra.Diff (l, r) ->
        let _, lexec = comp l and _, rexec = comp r in
        fun () -> Tuple.diff (lexec ()) (rexec ())
    | Ra.GroupBy (gl, al, e) ->
        let child_schema, child = comp e in
        let grouper = Groupby.compiled child_schema ~group_by:gl ~aggs:al in
        fun () -> Groupby.run_compiled grouper (child ())
    | Ra.Rename (_, e) | Ra.Prefix (_, e) ->
        let _, child = comp e in
        child
    | Ra.Distinct e ->
        let _, child = comp e in
        fun () -> Tuple.dedup (child ())
  in
  (schema, exec)

(* A chain of selections over a base relation: try to answer the
   equality part with one index probe, filter the rest.  Falls back to
   scan + filter when no covering index exists (or the predicate shape
   defeats the analysis — only a top-level conjunction of atoms can be
   pushed). *)
and compile_rel_select rel preds =
  let rschema = Relation.schema rel in
  let atoms = List.fold_left conjuncts [] preds in
  match choose_index rel atoms with
  | Some (attrs, key, residual) ->
      let keep =
        match residual with
        | [] -> None
        | ps -> Some (Predicate.compile rschema (Predicate.conj ps))
      in
      fun () ->
        Stats.incr Stats.Index_scan;
        let hits = Relation.lookup rel ~attrs key in
        List.filter
          (fun tu ->
            Stats.incr Stats.Tuple_read;
            match keep with None -> true | Some keep -> keep tu)
          hits
  | None ->
      let keep = Predicate.compile rschema (Predicate.conj atoms) in
      fun () ->
        List.filter
          (fun tu ->
            Stats.incr Stats.Tuple_read;
            keep tu)
          (Relation.to_list rel)

(* Hash join: a version-memoized build table — rebuilt only when some
   relation beneath the build expression has changed since the previous
   execution of this plan — probed once per left tuple.  ([List.rev_map]
   restores bucket insertion order: buckets are built by consing.) *)
and compile_equijoin pairs l r =
  let rs = Ra.schema_of r in
  let rkey = Tuple.projector rs (List.map snd pairs) in
  let lkey = Tuple.projector (Ra.schema_of l) (List.map fst pairs) in
  let dropped = List.map snd pairs in
  let keep = List.filter (fun n -> not (List.mem n dropped)) (Schema.names rs) in
  let rproj = Tuple.projector rs keep in
  let build_rels = rels_of [] r in
  let cache : (int list * Tuple.t list Tbl.t) option ref = ref None in
  let _, rexec = comp r in
  let _, lexec = comp l in
  let build () =
    let versions = List.map Relation.version build_rels in
    match !cache with
    | Some (vs, tbl) when List.equal Int.equal vs versions ->
        Stats.incr Stats.Build_reuse;
        tbl
    | _ ->
        let tbl = Tbl.create 256 in
        List.iter
          (fun tu ->
            let k = Array.to_list (rkey tu) in
            Tbl.replace tbl k
              (tu :: Option.value ~default:[] (Tbl.find_opt tbl k)))
          (rexec ());
        cache := Some (versions, tbl);
        tbl
  in
  fun () ->
    let table = build () in
    List.concat_map
      (fun ltu ->
        Stats.incr Stats.Index_probe;
        match Tbl.find_opt table (Array.to_list (lkey ltu)) with
        | None -> []
        | Some matches ->
            List.rev_map (fun rtu -> Tuple.concat ltu (rproj rtu)) matches)
      (lexec ())

let compile expr =
  Stats.incr Stats.Plan_compile;
  let schema, exec = comp expr in
  { source = expr; schema; exec }

let eval expr = run (compile expr)

(* Kept only for perfbench; delete at ROADMAP item 12's perfbench edit. *)
let compile_parallel () e = compile e

(* Make [Ra.eval] the compiled pipeline (see the note in ra.ml). *)
let () = Ra.internal_set_eval eval
