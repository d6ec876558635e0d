open Relational

type summarize =
  | Project_out of string list
  | Group_agg of string list * Aggregate.call list

type t = { name : string; body : Ca.t; summarize : summarize; schema : Schema.t }

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ca.Ill_formed s)) fmt

let define ?(allow_non_ca = false) ~name ~body summarize =
  Ca.check ~allow_non_ca body;
  let body_schema = Ca.schema_of body in
  let schema =
    match summarize with
    | Project_out attrs ->
        if List.mem Seqnum.attr attrs then
          ill_formed
            "view %s: the summarization projection must eliminate the \
             sequencing attribute (Definition 4.3)"
            name;
        (try Schema.project body_schema attrs
         with Schema.Unknown_attribute a ->
           ill_formed "view %s: summarization projects unknown attribute %s"
             name a)
    | Group_agg (gl, al) ->
        if List.mem Seqnum.attr gl then
          ill_formed
            "view %s: the summarization grouping list must not include the \
             sequencing attribute (Definition 4.3)"
            name;
        (try Aggregate.result_schema body_schema gl al
         with Schema.Unknown_attribute a ->
           ill_formed "view %s: summarization groups unknown attribute %s"
             name a)
  in
  { name; body; summarize; schema }

let name t = t.name
let body t = t.body
let summarize t = t.summarize
let schema t = t.schema

let group_attrs t =
  match t.summarize with
  | Project_out attrs -> attrs
  | Group_agg (gl, _) -> gl

let layout t =
  let aggs = match t.summarize with Project_out _ -> [] | Group_agg (_, al) -> al in
  Aggregate.layout (Ca.schema_of t.body) aggs

let eval_summarize t body_tuples =
  let body_schema = Ca.schema_of t.body in
  match t.summarize with
  | Project_out attrs ->
      let proj = Tuple.projector body_schema attrs in
      Tuple.dedup (List.map proj body_tuples)
  | Group_agg (gl, al) ->
      snd (Groupby.run body_schema body_tuples ~group_by:gl ~aggs:al)

let pp ppf t =
  match t.summarize with
  | Project_out attrs ->
      Format.fprintf ppf "@[%s = π[%s](%a)@]" t.name (String.concat "," attrs)
        Ca.pp t.body
  | Group_agg (gl, al) ->
      Format.fprintf ppf "@[%s = γ[%s; %a](%a)@]" t.name (String.concat "," gl)
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Aggregate.pp_call)
        al Ca.pp t.body
