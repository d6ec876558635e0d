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
   function — predicate, projector, key-join index probe — that
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

(* A shared key-join stage's output for one entry: filled by the first
   consumer that runs it, under the cell's lock, then read by every
   other consumer.  A failure is kept and re-raised by each of them. *)
type filled = Unfilled | Filled of zset | Raised of exn * Printexc.raw_backtrace
type cell = { lock : Mutex.t; mutable value : filled }
type memo = No_memo | Cells of (int, cell) Hashtbl.t

(* What a node runs on: the change at [sn], the slices around a
   retraction, and the entry's memo. *)
type input = { sn : Seqnum.t; before : batch; after : batch; change : change; memo : memo }

type node = input -> plus:sink -> minus:sink -> unit

(* An interned key-join stage [σ…(C) ⋈_key R]: one compiled streaming
   node, run by every plan that claims it. *)
type stage = {
  id : int;
  below : Ca.t; (* the σ/Π chain over one chronicle *)
  rel : Relation.t;
  pairs : (string * string) list;
  run : node;
  mutable consumers : int; (* plans holding a claim *)
}

type stages = { mutable next_id : int; mutable live : stage list }

type plan = { expr : Ca.t; node : node; reads_slices : bool; claims : stage list }

let emit z ~plus ~minus =
  List.iter plus z.plus;
  List.iter minus z.minus

let of_zset z = emit z

(* Both halves of a stream, as lists in stream order. *)
let collect (s : stream) =
  let plus = ref [] and minus = ref [] in
  s ~plus:(fun tu -> plus := tu :: !plus) ~minus:(fun tu -> minus := tu :: !minus);
  { plus = List.rev !plus; minus = List.rev !minus }

(* A stream stage: [stage sink] is the sink feeding [sink]. *)
let linear (stage : sink -> sink) (child : node) : node =
 fun inp ~plus ~minus -> child inp ~plus:(stage plus) ~minus:(stage minus)

(* The plus half of [child] over [change] alone: no slices, no memo. *)
let plus_of (child : node) ~sn change =
  (collect (child { sn; before = []; after = []; change; memo = No_memo })).plus

(* [rule ~sn change] is the operator's rule over its operands' plus
   halves; [reads] records that the plan needs the at-sn slices. *)
let nonlinear reads rule : node =
  reads := true;
  fun { sn; before; after; change; _ } ->
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
 fun inp ->
  let dl = collect (cl inp) and dr = collect (cr inp) in
  if dl.minus <> [] || dr.minus <> [] then no_minus what;
  let old_l = Eval.eval_before l inp.sn and old_r = Eval.eval_before r inp.sn in
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

(* [tu] joined by [join] with each row of [rows] that is still live in
   [rel], into [sink].  A top-level walk of its arguments, so a probe
   builds no closure. *)
let rec join_rows rel join sink tu = function
  | [] -> ()
  | row :: rows ->
      (match Relation.get rel row with Some rtu -> sink (join tu rtu) | None -> ());
      join_rows rel join sink tu rows

(* Δ(C ⋈_key R): join each Δ tuple with the matching relation tuples
   via one index probe on the join attributes (at most a constant
   number of matches in CA_⋈, by the key guarantee — Definition 4.2);
   both halves probe the relation's current version. *)
let key_join schema rel pairs (child : node) : node =
  let left_pos = Array.of_list (List.map (fun (a, _) -> Schema.pos schema a) pairs) in
  let right_attrs = List.map snd pairs in
  let rschema = Relation.schema rel in
  let keep =
    List.filter (fun n -> not (List.mem n right_attrs)) (Schema.names rschema)
  in
  let join = Tuple.concat_projector rschema keep in
  linear
    (fun sink tu ->
      Stats.incr Stats.Light_fold;
      join_rows rel join sink tu
        (Relation.lookup_rows rel ~attrs:right_attrs (values_at tu left_pos 0)))
    child

(* ---- shared key-join stages ---- *)

let stages () = { next_id = 0; live = [] }

(* A σ/Π chain over one base chronicle: the input an interned stage
   reads. *)
let rec is_chain = function
  | Ca.Chronicle _ -> true
  | Ca.Select (_, e) | Ca.Project (_, e) -> is_chain e
  | _ -> false

(* Predicates and attribute lists are plain data: equal ones select and
   project alike. *)
let rec same_chain a b =
  match a, b with
  | Ca.Chronicle c, Ca.Chronicle c' -> c == c'
  | Ca.Select (p, a), Ca.Select (p', b) -> p = p' && same_chain a b
  | Ca.Project (x, a), Ca.Project (y, b) -> x = y && same_chain a b
  | _ -> false

(* The live stage for [below ⋈_pairs rel], or a fresh one compiled by
   [build]; either way with one more consumer. *)
let intern st below rel pairs build =
  let stage =
    match
      List.find_opt
        (fun s -> s.rel == rel && s.pairs = pairs && same_chain s.below below)
        st.live
    with
    | Some s -> s
    | None ->
        let s = { id = st.next_id; below; rel; pairs; run = build (); consumers = 0 } in
        st.next_id <- st.next_id + 1;
        st.live <- st.live @ [ s ];
        s
  in
  stage.consumers <- stage.consumers + 1;
  stage

let release_claims st claims =
  List.iter
    (fun s ->
      s.consumers <- s.consumers - 1;
      if s.consumers = 0 then st.live <- List.filter (fun s' -> s' != s) st.live)
    claims

let release st plan = release_claims st plan.claims
let stage_consumers st = List.map (fun s -> s.consumers) st.live

(* The stage's output for this entry, run once by whoever comes first. *)
let fill cell (stage : stage) inp =
  Mutex.protect cell.lock (fun () ->
      (match cell.value with
      | Unfilled -> (
          match collect (stage.run inp) with
          | z -> cell.value <- Filled z
          | exception e -> cell.value <- Raised (e, Printexc.get_raw_backtrace ()))
      | Filled _ | Raised _ -> ());
      cell.value)

(* A consumer of [stage]: streams it when the entry has no cell for it
   (it is the entry's only consumer), else reads the cell. *)
let shared (stage : stage) : node =
 fun inp ~plus ~minus ->
  let cell =
    match inp.memo with
    | Cells cells -> Hashtbl.find_opt cells stage.id
    | No_memo -> None
  in
  match cell with
  | None -> stage.run inp ~plus ~minus
  | Some cell -> (
      match fill cell stage inp with
      | Filled z -> emit z ~plus ~minus
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
      | Unfilled -> assert false)

let memo plans =
  match List.concat_map (fun p -> p.claims) plans with
  | [] | [ _ ] -> No_memo
  | claims ->
      let seen = Hashtbl.create 8 and cells = Hashtbl.create 8 in
      List.iter
        (fun s ->
          if not (Hashtbl.mem seen s.id) then Hashtbl.add seen s.id ()
          else if not (Hashtbl.mem cells s.id) then
            Hashtbl.add cells s.id { lock = Mutex.create (); value = Unfilled })
        claims;
      if Hashtbl.length cells = 0 then No_memo else Cells cells

(* [share] is the intern table and the plan's claims while every
   operator above is linear and passes the change through unchanged —
   the only place a stage's output is the entry's. *)
let rec comp reads share expr : node =
  let comp_below = comp reads None in
  let comp_linear = comp reads share in
  match expr with
  | Ca.Chronicle c ->
      fun { change; _ } -> emit (Option.value ~default:empty (List.assq_opt c change))
  | Ca.Select (p, e) ->
      let keep = Predicate.compile (Ca.schema_of e) p in
      linear (fun sink tu -> if keep tu then sink tu) (comp_linear e)
  | Ca.Project (attrs, e) ->
      let proj = Tuple.projector (Ca.schema_of e) attrs in
      linear (fun sink tu -> sink (proj tu)) (comp_linear e)
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
      let cl = plus_of (comp_below l) and cr = plus_of (comp_below r) in
      nonlinear reads (fun ~sn change ->
          let dl = cl ~sn change and dr = cr ~sn change in
          if dl = [] || dr = [] then []
          else
            List.concat_map
              (fun ltu -> List.map (fun rtu -> Tuple.concat ltu (drop_sn rtu)) dr)
              dl)
  | Ca.Union (l, r) ->
      let cl = plus_of (comp_below l) and cr = plus_of (comp_below r) in
      nonlinear reads (fun ~sn change ->
          Tuple.dedup (cl ~sn change @ cr ~sn change))
  | Ca.Diff (l, r) ->
      let cl = plus_of (comp_below l) and cr = plus_of (comp_below r) in
      nonlinear reads (fun ~sn change -> Tuple.diff (cl ~sn change) (cr ~sn change))
  | Ca.GroupBySeq (gl, al, e) ->
      let grouper = Groupby.compiled (Ca.schema_of e) ~group_by:gl ~aggs:al in
      let child = plus_of (comp_below e) in
      nonlinear reads (fun ~sn change ->
          Groupby.run_compiled grouper (child ~sn change))
  | Ca.ProductRel (e, rel) ->
      (* relation tuple by relation tuple, each against the whole half,
         so the input half is collected first *)
      let child = comp_linear e in
      fun inp ~plus ~minus ->
        let z = collect (child inp) in
        let product sink delta =
          if delta <> [] then
            Relation.iter
              (fun _ rtu -> List.iter (fun tu -> sink (Tuple.concat tu rtu)) delta)
              rel
        in
        product plus z.plus;
        product minus z.minus
  | Ca.KeyJoinRel (e, rel, pairs) -> (
      let build () = key_join (Ca.schema_of e) rel pairs (comp_below e) in
      match share with
      | Some (st, claims) when is_chain e ->
          let stage = intern st e rel pairs build in
          claims := stage :: !claims;
          shared stage
      | Some _ | None -> build ())
  | Ca.CrossChron (l, r) ->
      (* Theorem 4.3: requires the old value of the opposite operand,
         i.e. access to retained history — necessarily evaluated at run
         time, no compile-once shortcut exists. *)
      history_reader "CrossChron" l r (comp_below l) (comp_below r) (fun ltu rtu ->
          Some (Tuple.concat ltu rtu))
  | Ca.ThetaJoinChron (p, l, r) ->
      let keep = Predicate.compile (Ca.schema_of expr) p in
      history_reader "ThetaJoinChron" l r (comp_below l) (comp_below r) (fun ltu rtu ->
          let tu = Tuple.concat ltu rtu in
          if keep tu then Some tu else None)

let compile ?stages expr =
  Stats.incr Stats.Plan_compile;
  let reads = ref false and claims = ref [] in
  let share = Option.map (fun st -> (st, claims)) stages in
  match comp reads share expr with
  | node -> { expr; node; reads_slices = !reads; claims = List.rev !claims }
  | exception e ->
      Option.iter (fun st -> release_claims st !claims) stages;
      raise e

let stream plan ~sn ?(memo = No_memo) ?(before = []) ?(after = []) change : stream =
  plan.node { sn; before; after; change; memo }

let run plan ~sn ?memo ?before ?after change = collect (stream plan ~sn ?memo ?before ?after change)

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
