module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

type compiled = {
  key_of : Tuple.t -> Tuple.t;
  calls : (Aggregate.func * int option) list;  (* argument position per call *)
  out_schema : Schema.t;
}

let compiled schema ~group_by ~aggs =
  {
    key_of = Tuple.projector schema group_by;
    calls =
      List.map
        (fun (c : Aggregate.call) -> (c.func, Option.map (Schema.pos schema) c.arg))
        aggs;
    out_schema = Aggregate.result_schema schema group_by aggs;
  }

(* Partition, then one [Aggregate.batch] per group and call: one
   [Group_lookup] per tuple, groups in first-appearance order, each
   group's tuples in input order. *)
let run_compiled c tuples =
  let groups = Key_tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun tu ->
      let key = Array.to_list (c.key_of tu) in
      Stats.incr Stats.Group_lookup;
      match Key_tbl.find_opt groups key with
      | Some members -> members := tu :: !members
      | None ->
          let members = ref [ tu ] in
          Key_tbl.add groups key members;
          order := (key, members) :: !order)
    tuples;
  let arg pos tu = match pos with None -> Value.Int 1 (* COUNT( * ) *) | Some p -> tu.(p) in
  (* [!order] is reversed first-appearance order; rev_map restores it *)
  List.rev_map
    (fun (key, members) ->
      let members = List.rev !members in
      Tuple.make
        (key
        @ List.map
            (fun (func, pos) -> Aggregate.batch func (List.map (arg pos) members))
            c.calls))
    !order

let run schema tuples ~group_by ~aggs =
  let c = compiled schema ~group_by ~aggs in
  (c.out_schema, run_compiled c tuples)
