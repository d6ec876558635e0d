open Relational

let chronicle_tuples c =
  let complete =
    match Chron.retention c with
    | Chron.Full -> true
    | Chron.Window n -> Chron.total_appended c <= n
    | Chron.Discard -> Chron.total_appended c = 0
  in
  if not complete then
    raise
      (Chron.Not_retained
         (Printf.sprintf
            "%s: %d tuples appended but only %d retained; full evaluation \
             needs complete history"
            (Chron.name c)
            (Chron.total_appended c)
            (Chron.stored_count c)));
  Chron.stored c

(* Evaluation shares the generic operator semantics with the relational
   substrate by translating to an [Ra] expression over inline constants;
   [leaf] supplies each base chronicle's collection. *)
let rec to_ra_with leaf expr =
  let go = to_ra_with leaf in
  match expr with
  | Ca.Chronicle c -> leaf c
  | Ca.Select (p, e) -> Ra.Select (p, go e)
  | Ca.Project (attrs, e) -> Ra.Project (attrs, go e)
  | Ca.SeqJoin (l, r) ->
      Ra.EquiJoin ([ (Seqnum.attr, Seqnum.attr) ], go l, go r)
  | Ca.Union (l, r) -> Ra.Union (go l, go r)
  | Ca.Diff (l, r) -> Ra.Diff (go l, go r)
  | Ca.GroupBySeq (gl, al, e) -> Ra.GroupBy (gl, al, go e)
  | Ca.ProductRel (e, r) -> Ra.Product (go e, Ra.Rel r)
  | Ca.KeyJoinRel (e, r, pairs) -> Ra.EquiJoin (pairs, go e, Ra.Rel r)
  | Ca.CrossChron (l, r) -> Ra.Product (go l, Ra.Prefix ("r", go r))
  | Ca.ThetaJoinChron (p, l, r) ->
      Ra.ThetaJoin (p, go l, Ra.Prefix ("r", go r))

let retained c = Ra.Const (Chron.schema c, chronicle_tuples c)
let to_ra = to_ra_with retained

(* Full evaluation inlines the chronicles' retained history as [Const]
   collections, so a translation (and its physical plan) is valid only
   for the chronicle contents at translation time: compile once per
   call, never cache across appends. *)
let eval expr = Plan.run (Plan.compile (to_ra expr))

let eval_over expr c rows =
  let leaf c' =
    if c' == c then Ra.Const (Chron.schema c, rows) else retained c'
  in
  Plan.run (Plan.compile (to_ra_with leaf expr))

let eval_before expr sn =
  let leaf c =
    let pos = Schema.pos (Chron.schema c) Seqnum.attr in
    Ra.Const
      ( Chron.schema c,
        List.filter
          (fun tu -> Seqnum.of_value (Tuple.get tu pos) < sn)
          (chronicle_tuples c) )
  in
  Plan.run (Plan.compile (to_ra_with leaf expr))
