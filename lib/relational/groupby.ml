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
   resolved a single time; each [run_compiled] call folds its input into
   a fresh group table with zero per-call name resolution. *)
type compiled = {
  c_aggs : Aggregate.call list;
  c_key_of : Tuple.t -> Tuple.t;
  c_arg_pos : int option array;
  c_out_schema : Schema.t;
}

let compiled input_schema ~group_by ~aggs =
  {
    c_aggs = aggs;
    c_key_of = Tuple.projector input_schema group_by;
    c_arg_pos =
      Array.of_list
        (List.map
           (fun (c : Aggregate.call) -> Option.map (Schema.pos input_schema) c.arg)
           aggs);
    c_out_schema = Aggregate.result_schema input_schema group_by aggs;
  }

let compiled_schema c = c.c_out_schema

(* A partial aggregation over one slice of the input: the group table
   plus first-appearance order (reversed).  Partials over contiguous
   input ranges merge (in range order) to exactly the table a single
   sequential fold would build — including its output order — because
   the global first appearance of a key is its first appearance in the
   earliest range containing it. *)
type partial = {
  p_groups : Aggregate.state array Key_tbl.t;
  p_order : Value.t list list; (* reversed first-appearance order *)
}

let run_compiled_partial c tuples =
  let groups = Key_tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun tuple ->
      let key = Array.to_list (c.c_key_of tuple) in
      Stats.incr Stats.Group_lookup;
      let states =
        match Key_tbl.find_opt groups key with
        | Some states -> states
        | None ->
            let states = fresh_states c.c_aggs in
            Key_tbl.add groups key states;
            order := key :: !order;
            states
      in
      List.iteri
        (fun i (call : Aggregate.call) ->
          let arg =
            match c.c_arg_pos.(i) with
            | None -> Value.Int 1 (* COUNT([*]): any non-null value *)
            | Some p -> tuple.(p)
          in
          states.(i) <- Aggregate.step call.func states.(i) arg)
        c.c_aggs)
    tuples;
  { p_groups = groups; p_order = !order }

let compiled_row_of c key states =
  Tuple.make
    (key
    @ List.mapi
        (fun i (call : Aggregate.call) -> Aggregate.final call.func states.(i))
        c.c_aggs)

let result_of_partial c { p_groups; p_order } =
  List.rev_map (fun key -> compiled_row_of c key (Key_tbl.find p_groups key)) p_order

let merge_partials c = function
  | [] -> []
  | [ single ] -> result_of_partial c single
  | first :: rest ->
      (* merge into the first partial, visiting later partials in range
         order and their keys in first-appearance order; a key unseen so
         far is appended (adopting its states), a seen key merges
         state-wise via [Aggregate.merge] *)
      let merged = first.p_groups in
      let order = ref first.p_order in
      List.iter
        (fun p ->
          List.iter
            (fun key ->
              let states = Key_tbl.find p.p_groups key in
              match Key_tbl.find_opt merged key with
              | None ->
                  Key_tbl.add merged key states;
                  order := key :: !order
              | Some acc ->
                  List.iteri
                    (fun i (call : Aggregate.call) ->
                      acc.(i) <- Aggregate.merge call.func acc.(i) states.(i))
                    c.c_aggs)
            (List.rev p.p_order))
        rest;
      result_of_partial c { p_groups = merged; p_order = !order }

let run_compiled c tuples = result_of_partial c (run_compiled_partial c tuples)

let run_rel rel ~group_by ~aggs =
  run (Relation.schema rel) (Relation.to_list rel) ~group_by ~aggs
