open Relational

type zset = { plus : Tuple.t list; minus : Tuple.t list }
type batch = (Chron.t * Tuple.t list) list
type change = (Chron.t * zset) list

let empty = { plus = []; minus = [] }
let appended batch = List.map (fun (c, tuples) -> (c, { plus = tuples; minus = [] })) batch

(* Multiset difference [after − before] as a Z-set, each half in
   first-appearance order.  Occurrences present on both sides cancel
   (bumping [Stats.Weight_cancel] per cancelled pair); a tuple whose
   counts balance exactly disappears from the delta entirely. *)
let mdiff after before =
  let tbl = Tuple.Tbl.create 32 in
  let order = ref [] in
  let cell tu =
    match Tuple.Tbl.find_opt tbl tu with
    | Some c -> c
    | None ->
        let c = (ref 0, ref 0) in
        Tuple.Tbl.add tbl tu c;
        order := tu :: !order;
        c
  in
  List.iter (fun tu -> incr (fst (cell tu))) after;
  List.iter (fun tu -> incr (snd (cell tu))) before;
  let rec copies n tu acc = if n <= 0 then acc else copies (n - 1) tu (tu :: acc) in
  List.fold_left
    (fun z tu ->
      let a, b = Tuple.Tbl.find tbl tu in
      let cancelled = min !a !b in
      if cancelled > 0 then Stats.add Stats.Weight_cancel cancelled;
      { plus = copies (!a - !b) tu z.plus; minus = copies (!b - !a) tu z.minus })
    empty !order

(* A compiled Δ-evaluator.  All expression-dependent work — schema
   derivation, predicate compilation, projector construction, key-join
   position resolution — happens once in [compile]; [run] then does only
   probe-and-fold work per batch.  The chronicle layer caches one plan
   per persistent view ([View.plan]), so steady-state maintenance
   recompiles nothing.

   Each node maps the Z-set change of the base chronicles at [sn] to
   the Z-set change of its output.  Linear operators (the base
   chronicle, σ, Π, ×R, ⋈_key R) apply their one compiled function —
   predicate, projector, key-join heavy-light partition — to both
   halves.  Non-linear operators (∪ and − under set semantics, ⋈_SN,
   GROUPBY) apply their own delta rule to their operands' plus halves,
   which for an append are the at-[sn] slices themselves.  A retraction
   also passes the full at-[sn] slices of every base chronicle, before
   and after the mutation: a CA delta at [sn] depends only on those
   slices, so the node's change is the multiset difference of its plain
   evaluation over the two ([mdiff]).  The slices are read only when
   [before] is non-empty.  History-reading operators have no minus form
   at all — [Db.retract] rematerializes such views from retained
   history instead. *)
type node = sn:Seqnum.t -> before:batch -> after:batch -> change -> zset
type plan = { expr : Ca.t; node : node; reads_slices : bool }

let linear f (child : node) : node =
 fun ~sn ~before ~after change ->
  let z = child ~sn ~before ~after change in
  { plus = f z.plus; minus = f z.minus }

(* [rule ~sn change] is the operator's rule over its operands' plus
   halves; [reads] records that the plan needs the at-sn slices. *)
let nonlinear reads rule : node =
  reads := true;
  fun ~sn ~before ~after change ->
    if before = [] then { plus = rule ~sn change; minus = [] }
    else mdiff (rule ~sn (appended after)) (rule ~sn (appended before))

let no_minus what =
  invalid_arg
    (Printf.sprintf
       "Delta: %s reads retained history and has no minus delta form \
        (rematerialize the view instead)"
       what)

(* A chronicle-chronicle join: each operand's delta against the other
   operand's history before [sn], plus the two deltas against each
   other; [pair] joins two tuples, or rejects the pair. *)
let history_reader what l r (cl : node) (cr : node) pair : node =
 fun ~sn ~before ~after change ->
  let dl = cl ~sn ~before ~after change and dr = cr ~sn ~before ~after change in
  if dl.minus <> [] || dr.minus <> [] then no_minus what;
  let old_l = Eval.eval_before l sn and old_r = Eval.eval_before r sn in
  let cross left right =
    List.concat_map (fun ltu -> List.filter_map (pair ltu) right) left
  in
  {
    plus = cross dl.plus old_r @ cross old_l dr.plus @ cross dl.plus dr.plus;
    minus = [];
  }

let rec comp ~heavy_threshold reads expr : node =
  let comp = comp ~heavy_threshold reads in
  let plus (child : node) ~sn change = (child ~sn ~before:[] ~after:[] change).plus in
  match expr with
  | Ca.Chronicle c ->
      fun ~sn:_ ~before:_ ~after:_ change ->
        Option.value ~default:empty (List.assq_opt c change)
  | Ca.Select (p, e) ->
      let keep = Predicate.compile (Ca.schema_of e) p in
      linear (List.filter keep) (comp e)
  | Ca.Project (attrs, e) ->
      linear (List.map (Tuple.projector (Ca.schema_of e) attrs)) (comp e)
  | Ca.SeqJoin (l, r) ->
      (* both deltas carry only the batch's sequence number, so the join
         degenerates to a product of the two deltas (appendix, Thm 4.1) *)
      let rs = Ca.schema_of r in
      let drop_sn =
        Tuple.projector rs
          (List.filter
             (fun n -> not (String.equal n Seqnum.attr))
             (Schema.names rs))
      in
      let cl = plus (comp l) and cr = plus (comp r) in
      nonlinear reads (fun ~sn change ->
          let dl = cl ~sn change and dr = cr ~sn change in
          if dl = [] || dr = [] then []
          else
            List.concat_map
              (fun ltu -> List.map (fun rtu -> Tuple.concat ltu (drop_sn rtu)) dr)
              dl)
  | Ca.Union (l, r) ->
      let cl = plus (comp l) and cr = plus (comp r) in
      nonlinear reads (fun ~sn change ->
          Tuple.dedup (cl ~sn change @ cr ~sn change))
  | Ca.Diff (l, r) ->
      let cl = plus (comp l) and cr = plus (comp r) in
      nonlinear reads (fun ~sn change -> Tuple.diff (cl ~sn change) (cr ~sn change))
  | Ca.GroupBySeq (gl, al, e) ->
      let grouper = Groupby.compiled (Ca.schema_of e) ~group_by:gl ~aggs:al in
      let child = plus (comp e) in
      nonlinear reads (fun ~sn change ->
          Groupby.run_compiled grouper (child ~sn change))
  | Ca.ProductRel (e, rel) ->
      linear
        (fun delta ->
          if delta = [] then []
          else
            Relation.fold
              (fun acc rtu ->
                List.fold_left (fun acc tu -> Tuple.concat tu rtu :: acc) acc delta)
              [] rel
            |> List.rev)
        (comp e)
  | Ca.KeyJoinRel (e, rel, pairs) ->
      (* join each Δ tuple with the matching relation tuples via an
         index probe on the join attributes (at most a constant number
         of matches in CA_⋈, by the key guarantee).  The probe is
         heavy-light partitioned per compiled site: keys whose
         frequency crosses the threshold get their projected match run
         materialized once and served from cache; light keys keep the
         lazy probe.  [Skew.matches] guarantees the result is
         byte-identical to the lazy expression at the relation's
         current version, so the fold stays order-identical to the
         sequential oracle at every parallelism degree.  Both halves
         probe through the same partition state. *)
      let schema = Ca.schema_of e in
      let left_key = Tuple.projector schema (List.map fst pairs) in
      let right_attrs = List.map snd pairs in
      let rschema = Relation.schema rel in
      let keep =
        List.filter (fun n -> not (List.mem n right_attrs)) (Schema.names rschema)
      in
      let rproj = Tuple.projector rschema keep in
      let part = Skew.create ~threshold:heavy_threshold () in
      let probe tu =
        let key = Array.to_list (left_key tu) in
        Skew.matches part rel ~attrs:right_attrs ~project:rproj key
      in
      linear
        (List.concat_map (fun tu ->
             List.map (fun rtu -> Tuple.concat tu rtu) (probe tu)))
        (comp e)
  | Ca.CrossChron (l, r) ->
      (* Theorem 4.3: requires the old value of the opposite operand,
         i.e. access to retained history — necessarily evaluated at run
         time, no compile-once shortcut exists. *)
      history_reader "CrossChron" l r (comp l) (comp r) (fun ltu rtu ->
          Some (Tuple.concat ltu rtu))
  | Ca.ThetaJoinChron (p, l, r) ->
      let keep = Predicate.compile (Ca.schema_of expr) p in
      history_reader "ThetaJoinChron" l r (comp l) (comp r) (fun ltu rtu ->
          let tu = Tuple.concat ltu rtu in
          if keep tu then Some tu else None)

let compile ?(heavy_threshold = 0) expr =
  Stats.incr Stats.Plan_compile;
  let reads = ref false in
  let node = comp ~heavy_threshold reads expr in
  { expr; node; reads_slices = !reads }

let run plan ~sn ?(before = []) ?(after = []) change =
  plan.node ~sn ~before ~after change

let reads_slices plan = plan.reads_slices
let expr plan = plan.expr
let eval expr ~sn ~batch = (run (compile expr) ~sn (appended batch)).plus

let all_fresh schema sn tuples =
  match Schema.pos_opt schema Seqnum.attr with
  | None -> true
  | Some pos ->
      List.for_all
        (fun tu -> Seqnum.of_value (Tuple.get tu pos) = sn)
        tuples
