module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

type table = {
  input_schema : Schema.t;
  group_by : string list;
  aggs : Aggregate.call list;
  key_of : Tuple.t -> Tuple.t;
  arg_pos : int option array; (* argument position per agg call *)
  groups : Aggregate.state array Key_tbl.t;
  mutable order : Value.t list list; (* first-appearance order, reversed *)
  out_schema : Schema.t;
}

let create input_schema ~group_by ~aggs =
  let key_of = Tuple.projector input_schema group_by in
  let arg_pos =
    Array.of_list
      (List.map
         (fun (c : Aggregate.call) ->
           Option.map (Schema.pos input_schema) c.arg)
         aggs)
  in
  {
    input_schema;
    group_by;
    aggs;
    key_of;
    arg_pos;
    groups = Key_tbl.create 64;
    order = [];
    out_schema = Aggregate.result_schema input_schema group_by aggs;
  }

let fresh_states aggs =
  Array.of_list (List.map (fun (c : Aggregate.call) -> Aggregate.init c.func) aggs)

let step t tuple =
  let key = Array.to_list (t.key_of tuple) in
  Stats.incr Stats.Group_lookup;
  let states =
    match Key_tbl.find_opt t.groups key with
    | Some states -> states
    | None ->
        let states = fresh_states t.aggs in
        Key_tbl.add t.groups key states;
        t.order <- key :: t.order;
        states
  in
  List.iteri
    (fun i (c : Aggregate.call) ->
      let arg =
        match t.arg_pos.(i) with
        | None -> Value.Int 1 (* COUNT([*]): any non-null value *)
        | Some p -> tuple.(p)
      in
      states.(i) <- Aggregate.step c.func states.(i) arg)
    t.aggs

let result_schema t = t.out_schema

let row_of t key states =
  Tuple.make
    (key
    @ List.mapi
        (fun i (c : Aggregate.call) -> Aggregate.final c.func states.(i))
        t.aggs)

let result t =
  (* [t.order] is reversed first-appearance order; rev_map restores it *)
  List.rev_map (fun key -> row_of t key (Key_tbl.find t.groups key)) t.order

let group_count t = Key_tbl.length t.groups

let current t key =
  Option.map (row_of t key) (Key_tbl.find_opt t.groups key)

let run schema tuples ~group_by ~aggs =
  let t = create schema ~group_by ~aggs in
  List.iter (step t) tuples;
  (t.out_schema, result t)

(* Compile-once variant: the projector and argument positions are
   resolved a single time into an empty template table; each
   [run_compiled] call folds its input into a fresh copy of it with zero
   per-call name resolution. *)
type compiled = table

let compiled = create
let compiled_schema = result_schema

let run_compiled c tuples =
  let t = { c with groups = Key_tbl.create 64; order = [] } in
  List.iter (step t) tuples;
  result t

let run_rel rel ~group_by ~aggs =
  run (Relation.schema rel) (Relation.to_list rel) ~group_by ~aggs
