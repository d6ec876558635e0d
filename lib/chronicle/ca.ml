open Relational

type t =
  | Chronicle of Chron.t
  | Select of Predicate.t * t
  | Project of string list * t
  | SeqJoin of t * t
  | Union of t * t
  | Diff of t * t
  | GroupBySeq of string list * Aggregate.call list * t
  | ProductRel of t * Relation.t
  | KeyJoinRel of t * Relation.t * (string * string) list
  | CrossChron of t * t
  | ThetaJoinChron of Predicate.t * t * t

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let rec schema_of = function
  | Chronicle c -> Chron.schema c
  | Select (p, e) ->
      let s = schema_of e in
      List.iter
        (fun a ->
          if not (Schema.mem s a) then
            ill_formed "selection mentions unknown attribute %s" a)
        (Predicate.attrs p);
      s
  | Project (attrs, e) -> (
      let s = schema_of e in
      try Schema.project s attrs
      with Schema.Unknown_attribute a ->
        ill_formed "projection on unknown attribute %s" a)
  | SeqJoin (l, r) -> (
      let ls = schema_of l and rs = schema_of r in
      let rs' = Schema.remove rs Seqnum.attr in
      try Schema.concat ls rs'
      with Schema.Duplicate_attribute a ->
        ill_formed "sequence join operands share attribute %s" a)
  | Union (l, r) | Diff (l, r) ->
      let ls = schema_of l and rs = schema_of r in
      if not (Schema.union_compatible ls rs) then
        ill_formed "union/difference operands not compatible: %a vs %a"
          Schema.pp ls Schema.pp rs;
      ls
  | GroupBySeq (gl, al, e) -> (
      let s = schema_of e in
      try Aggregate.result_schema s gl al
      with Schema.Unknown_attribute a ->
        ill_formed "grouping on unknown attribute %s" a)
  | ProductRel (e, r) -> (
      try Schema.concat (schema_of e) (Relation.schema r)
      with Schema.Duplicate_attribute a ->
        ill_formed "product with %s shares attribute %s" (Relation.name r) a)
  | KeyJoinRel (e, r, pairs) -> (
      let ls = schema_of e and rs = Relation.schema r in
      List.iter
        (fun (a, b) ->
          if not (Schema.mem ls a) then
            ill_formed "key join: chronicle side lacks attribute %s" a;
          if not (Schema.mem rs b) then
            ill_formed "key join: relation %s lacks attribute %s"
              (Relation.name r) b)
        pairs;
      let dropped = List.map snd pairs in
      let keep =
        List.filter (fun n -> not (List.mem n dropped)) (Schema.names rs)
      in
      try Schema.concat ls (Schema.project rs keep)
      with Schema.Duplicate_attribute a ->
        ill_formed "key join with %s shares attribute %s" (Relation.name r) a)
  | CrossChron (l, r) -> (
      try Schema.concat (schema_of l) (Schema.prefix "r" (schema_of r))
      with Schema.Duplicate_attribute a ->
        ill_formed "chronicle cross product shares attribute %s" a)
  | ThetaJoinChron (p, l, r) ->
      let s =
        try Schema.concat (schema_of l) (Schema.prefix "r" (schema_of r))
        with Schema.Duplicate_attribute a ->
          ill_formed "chronicle theta join shares attribute %s" a
      in
      List.iter
        (fun a ->
          if not (Schema.mem s a) then
            ill_formed "theta join predicate mentions unknown attribute %s" a)
        (Predicate.attrs p);
      s

let chronicles expr =
  let rec go acc = function
    | Chronicle c -> if List.memq c acc then acc else c :: acc
    | Select (_, e) | Project (_, e) | GroupBySeq (_, _, e)
    | ProductRel (e, _) | KeyJoinRel (e, _, _) ->
        go acc e
    | SeqJoin (l, r) | Union (l, r) | Diff (l, r) | CrossChron (l, r)
    | ThetaJoinChron (_, l, r) ->
        go (go acc l) r
  in
  List.rev (go [] expr)

let relations expr =
  let rec go acc = function
    | Chronicle _ -> acc
    | Select (_, e) | Project (_, e) | GroupBySeq (_, _, e) -> go acc e
    | ProductRel (e, r) | KeyJoinRel (e, r, _) ->
        go (if List.memq r acc then acc else r :: acc) e
    | SeqJoin (l, r) | Union (l, r) | Diff (l, r) | CrossChron (l, r)
    | ThetaJoinChron (_, l, r) ->
        go (go acc l) r
  in
  List.rev (go [] expr)

let depends_on expr c = List.memq c (chronicles expr)

let group_of expr =
  match chronicles expr with
  | [] -> ill_formed "expression mentions no chronicle"
  | c :: rest ->
      let g = Chron.group c in
      List.iter
        (fun c' ->
          if not (Group.same (Chron.group c') g) then
            ill_formed "chronicles %s and %s are in different groups"
              (Chron.name c) (Chron.name c'))
        rest;
      g

let rec column_source e a =
  match e with
  | Chronicle c ->
      let s = Chron.schema c in
      if Schema.mem s a then Some (c, Schema.pos s a) else None
  | Select (_, e) -> column_source e a
  | Project (attrs, e) -> if List.mem a attrs then column_source e a else None
  | ProductRel (e, _) | KeyJoinRel (e, _, _) ->
      (* attribute names are disjoint, so [a] is the chronicle side's
         exactly when that side has it *)
      if Schema.mem (schema_of e) a then column_source e a else None
  | SeqJoin _ | Union _ | Diff _ | GroupBySeq _ | CrossChron _
  | ThetaJoinChron _ ->
      None

let rec unions = function
  | Chronicle _ -> 0
  | Select (_, e) | Project (_, e) | GroupBySeq (_, _, e)
  | ProductRel (e, _) | KeyJoinRel (e, _, _) ->
      unions e
  | Union (l, r) -> 1 + unions l + unions r
  | Diff (l, r) | SeqJoin (l, r) | CrossChron (l, r) | ThetaJoinChron (_, l, r)
    ->
      unions l + unions r

let rec joins = function
  | Chronicle _ -> 0
  | Select (_, e) | Project (_, e) | GroupBySeq (_, _, e) -> joins e
  | ProductRel (e, _) | KeyJoinRel (e, _, _) -> 1 + joins e
  | SeqJoin (l, r) | CrossChron (l, r) | ThetaJoinChron (_, l, r) ->
      1 + joins l + joins r
  | Union (l, r) | Diff (l, r) -> joins l + joins r

let rec reads_history = function
  | Chronicle _ -> false
  | Select (_, e) | Project (_, e) | GroupBySeq (_, _, e)
  | ProductRel (e, _) | KeyJoinRel (e, _, _) ->
      reads_history e
  | SeqJoin (l, r) | Union (l, r) | Diff (l, r) ->
      reads_history l || reads_history r
  | CrossChron _ | ThetaJoinChron _ ->
      (* the non-CA joins pair the Δ-batch against the *whole retained
         history* of the other operand (Eval.eval_before): their Δ-fold
         reads chronicle state beyond the batch itself *)
      true

let covers_key rel pairs =
  match Relation.key rel with
  | None -> false
  | Some key ->
      let joined = List.map snd pairs in
      List.for_all (fun k -> List.mem k joined) key

let check ?(allow_non_ca = false) expr =
  let rec go = function
    | Chronicle _ -> ()
    | Select (p, e) ->
        if not (Predicate.is_ca_form p) then
          ill_formed
            "selection predicate %a is not a disjunction of comparisons \
             (Definition 4.1)"
            Predicate.pp p;
        go e
    | Project (attrs, e) ->
        if not (List.mem Seqnum.attr attrs) then
          ill_formed
            "projection %s drops the sequencing attribute: the result is \
             not a chronicle (Theorem 4.3); use the summarization step of \
             SCA instead"
            (String.concat "," attrs);
        go e
    | SeqJoin (l, r) | Union (l, r) | Diff (l, r) ->
        go l;
        go r
    | GroupBySeq (gl, _, e) ->
        if not (List.mem Seqnum.attr gl) then
          ill_formed
            "grouping list %s omits the sequencing attribute: the result \
             is not a chronicle (Theorem 4.3); use the summarization step \
             of SCA instead"
            (String.concat "," gl);
        go e
    | ProductRel (e, _) -> go e
    | KeyJoinRel (e, r, pairs) ->
        if not (covers_key r pairs) then
          ill_formed
            "key join with %s does not cover a key of the relation: the \
             constant-fanout guarantee of CA_M (Definition 4.2) fails"
            (Relation.name r);
        go e
    | CrossChron (l, r) ->
        if not allow_non_ca then
          ill_formed
            "cross product between chronicles is outside CA: incremental \
             maintenance would depend on the chronicle size (Theorem 4.3)";
        go l;
        go r
    | ThetaJoinChron (p, l, r) ->
        if not allow_non_ca then
          ill_formed
            "non-equijoin (%a) between chronicles is outside CA: \
             incremental maintenance would depend on the chronicle size \
             (Theorem 4.3)"
            Predicate.pp p;
        go l;
        go r
  in
  go expr;
  ignore (schema_of expr);
  (* also validates group coherence *)
  ignore (group_of expr)

let rec pp ppf = function
  | Chronicle c -> Format.pp_print_string ppf (Chron.name c)
  | Select (p, e) -> Format.fprintf ppf "@[σ[%a](%a)@]" Predicate.pp p pp e
  | Project (attrs, e) ->
      Format.fprintf ppf "@[π[%s](%a)@]" (String.concat "," attrs) pp e
  | SeqJoin (l, r) -> Format.fprintf ppf "@[(%a ⋈sn %a)@]" pp l pp r
  | Union (l, r) -> Format.fprintf ppf "@[(%a ∪ %a)@]" pp l pp r
  | Diff (l, r) -> Format.fprintf ppf "@[(%a − %a)@]" pp l pp r
  | GroupBySeq (gl, al, e) ->
      Format.fprintf ppf "@[γ[%s; %a](%a)@]" (String.concat "," gl)
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Aggregate.pp_call)
        al pp e
  | ProductRel (e, r) ->
      Format.fprintf ppf "@[(%a × %s)@]" pp e (Relation.name r)
  | KeyJoinRel (e, r, pairs) ->
      let pp_pair ppf (a, b) = Format.fprintf ppf "%s=%s" a b in
      Format.fprintf ppf "@[(%a ⋈key[%a] %s)@]" pp e
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp_pair)
        pairs (Relation.name r)
  | CrossChron (l, r) -> Format.fprintf ppf "@[(%a ×! %a)@]" pp l pp r
  | ThetaJoinChron (p, l, r) ->
      Format.fprintf ppf "@[(%a ⋈θ![%a] %a)@]" pp l Predicate.pp p pp r
