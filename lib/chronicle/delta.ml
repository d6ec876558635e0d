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
   position resolution — happens once in [compile]; a run then does only
   probe-and-fold work per batch.  The chronicle layer caches one plan
   per persistent view ([View.plan]), so steady-state maintenance
   recompiles nothing.

   Each node pushes the Z-set change of its output — caused by the
   Z-set change of the base chronicles at [sn] — into two sinks, the
   plus half first, each half in order.  Linear operators (the base
   chronicle, σ, Π, ⋈_key R) are per-tuple stream stages: one compiled
   function — predicate, projector, key-join heavy-light probe — that
   wraps the sink it feeds, used for both halves, with no list built
   between stages.  ×R is linear too, but its output runs relation
   tuple by relation tuple over the whole half, so it collects its
   input half (not its output) first.  Non-linear operators (∪ and − under set
   semantics, ⋈_SN, GROUPBY) apply their own delta rule to their
   operands' plus halves, collected as lists, which for an append are
   the at-[sn] slices themselves.  A retraction also passes the full
   at-[sn] slices of every base chronicle, before and after the
   mutation: a CA delta at [sn] depends only on those slices, so the
   node's change is the multiset difference of its plain evaluation
   over the two ([mdiff]).  The slices are read only when [before] is
   non-empty.  History-reading operators have no minus form at all —
   [Db.retract] rematerializes such views from retained history
   instead. *)
type sink = Tuple.t -> unit
type stream = plus:sink -> minus:sink -> unit

type node =
  sn:Seqnum.t -> before:batch -> after:batch -> change -> plus:sink -> minus:sink -> unit

type plan = { expr : Ca.t; node : node; reads_slices : bool }

let emit z ~plus ~minus =
  List.iter plus z.plus;
  List.iter minus z.minus

let of_zset z = emit z

(* Both halves of a stream, as lists in stream order. *)
let collect (s : stream) =
  let plus = ref [] and minus = ref [] in
  s ~plus:(fun tu -> plus := tu :: !plus) ~minus:(fun tu -> minus := tu :: !minus);
  { plus = List.rev !plus; minus = List.rev !minus }

let collect_node (node : node) ~sn ~before ~after change =
  collect (node ~sn ~before ~after change)

(* A stream stage: [stage sink] is the sink feeding [sink]. *)
let linear (stage : sink -> sink) (child : node) : node =
 fun ~sn ~before ~after change ~plus ~minus ->
  child ~sn ~before ~after change ~plus:(stage plus) ~minus:(stage minus)

(* [rule ~sn change] is the operator's rule over its operands' plus
   halves; [reads] records that the plan needs the at-sn slices. *)
let nonlinear reads rule : node =
  reads := true;
  fun ~sn ~before ~after change ->
    if before = [] then emit { plus = rule ~sn change; minus = [] }
    else emit (mdiff (rule ~sn (appended after)) (rule ~sn (appended before)))

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
  let dl = collect_node cl ~sn ~before ~after change
  and dr = collect_node cr ~sn ~before ~after change in
  if dl.minus <> [] || dr.minus <> [] then no_minus what;
  let old_l = Eval.eval_before l sn and old_r = Eval.eval_before r sn in
  let cross left right =
    List.concat_map (fun ltu -> List.filter_map (pair ltu) right) left
  in
  emit
    {
      plus = cross dl.plus old_r @ cross old_l dr.plus @ cross dl.plus dr.plus;
      minus = [];
    }

(* The values of [tu] at [pos] from [i] on, as a key list. *)
let rec values_at tu pos i =
  if i >= Array.length pos then [] else Tuple.get tu pos.(i) :: values_at tu pos (i + 1)

let rec comp ~heavy_threshold reads expr : node =
  let comp = comp ~heavy_threshold reads in
  let plus (child : node) ~sn change =
    (collect_node child ~sn ~before:[] ~after:[] change).plus
  in
  match expr with
  | Ca.Chronicle c ->
      fun ~sn:_ ~before:_ ~after:_ change ->
        emit (Option.value ~default:empty (List.assq_opt c change))
  | Ca.Select (p, e) ->
      let keep = Predicate.compile (Ca.schema_of e) p in
      linear (fun sink tu -> if keep tu then sink tu) (comp e)
  | Ca.Project (attrs, e) ->
      let proj = Tuple.projector (Ca.schema_of e) attrs in
      linear (fun sink tu -> sink (proj tu)) (comp e)
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
      (* relation tuple by relation tuple, each against the whole half,
         so the input half is collected first *)
      let child = comp e in
      fun ~sn ~before ~after change ~plus ~minus ->
        let z = collect_node child ~sn ~before ~after change in
        let product sink delta =
          if delta <> [] then
            Relation.iter
              (fun _ rtu -> List.iter (fun tu -> sink (Tuple.concat tu rtu)) delta)
              rel
        in
        product plus z.plus;
        product minus z.minus
  | Ca.KeyJoinRel (e, rel, pairs) ->
      (* join each Δ tuple with the matching relation tuples via an
         index probe on the join attributes (at most a constant number
         of matches in CA_⋈, by the key guarantee).  The probe is
         heavy-light partitioned per compiled site: keys whose
         frequency crosses the threshold get their projected match run
         materialized once and served from cache; light keys keep the
         lazy probe.  [Skew.iter_matches] guarantees the matches are
         byte-identical to the lazy expression at the relation's
         current version, so the fold stays order-identical to the
         sequential oracle at every parallelism degree.  Both halves
         probe through the same partition state. *)
      let schema = Ca.schema_of e in
      let left_pos = Array.of_list (List.map (fun (a, _) -> Schema.pos schema a) pairs) in
      let right_attrs = List.map snd pairs in
      let rschema = Relation.schema rel in
      let keep =
        List.filter (fun n -> not (List.mem n right_attrs)) (Schema.names rschema)
      in
      let rproj = Tuple.projector rschema keep in
      let part = Skew.create ~threshold:heavy_threshold () in
      linear
        (fun sink ->
          let joined tu rtu = sink (Tuple.concat tu rtu) in
          fun tu ->
            let key = values_at tu left_pos 0 in
            Skew.iter_matches part rel ~attrs:right_attrs ~project:rproj key joined tu)
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

let stream plan ~sn ?(before = []) ?(after = []) change : stream =
  plan.node ~sn ~before ~after change

let run plan ~sn ?before ?after change = collect (stream plan ~sn ?before ?after change)

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
