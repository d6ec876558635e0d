type kind = Hash | Ordered

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

module Key_tree = Btree.Make (struct
  type t = Value.t list

  let compare = Value.compare_list
end)

type t = {
  kind : kind;
  attrs : string list;
  hash : int list Key_tbl.t; (* used when kind = Hash *)
  tree : int list Key_tree.t; (* used when kind = Ordered *)
}

let create kind ~attrs =
  { kind; attrs; hash = Key_tbl.create 64; tree = Key_tree.create () }

let kind t = t.kind
let attrs t = t.attrs

(* Per-key row lists are kept sorted ascending (row-insertion order in
   the common append-only case, where the new row id exceeds every
   stored one and the insert is O(1)).  Sortedness is what makes a
   probe's answer the relation's scan order, and what lets the bounded
   probes below slice a contiguous sub-run out of a key's run. *)
let rec insert_sorted row = function
  | [] -> [ row ]
  | r :: rest when r < row -> r :: insert_sorted row rest
  | rows -> row :: rows

let add t key row =
  match t.kind with
  | Hash ->
      let rows = Option.value ~default:[] (Key_tbl.find_opt t.hash key) in
      Key_tbl.replace t.hash key (insert_sorted row rows)
  | Ordered ->
      Key_tree.update t.tree key (function
        | None -> Some [ row ]
        | Some rows -> Some (insert_sorted row rows))

let remove_one rows row =
  let rec go = function
    | [] -> []
    | r :: rest -> if r = row then rest else r :: go rest
  in
  go rows

let remove t key row =
  match t.kind with
  | Hash -> (
      match Key_tbl.find_opt t.hash key with
      | None -> ()
      | Some rows -> (
          match remove_one rows row with
          | [] -> Key_tbl.remove t.hash key
          | rows' -> Key_tbl.replace t.hash key rows'))
  | Ordered ->
      Key_tree.update t.tree key (function
        | None -> None
        | Some rows -> (
            match remove_one rows row with [] -> None | rows' -> Some rows'))

let find t key =
  match t.kind with
  | Hash -> (
      Stats.incr Stats.Index_probe;
      match Key_tbl.find t.hash key with rows -> rows | exception Not_found -> [])
  | Ordered -> Option.value ~default:[] (Key_tree.find t.tree key)

(* The sub-run of a sorted row list falling in [lo, hi).  Sortedness
   makes this a drop-prefix / take-while pass: once past [hi) nothing
   later can qualify. *)
let bounded_run ~lo ~hi rows =
  let rec skip = function
    | r :: rest when r < lo -> skip rest
    | rows -> take rows
  and take = function
    | r :: rest when r < hi -> r :: take rest
    | _ -> []
  in
  skip rows

let find_bounded t key ~lo ~hi =
  if lo >= hi then []
  else
    match t.kind with
    | Hash ->
        Stats.incr Stats.Index_probe;
        bounded_run ~lo ~hi
          (Option.value ~default:[] (Key_tbl.find_opt t.hash key))
    | Ordered ->
        (* one descent; the slice happens at the leaf *)
        Option.value ~default:[]
          (Key_tree.find_map t.tree key (fun rows ->
               Some (bounded_run ~lo ~hi rows)))

let find_range t ~lo ~hi =
  match t.kind with
  | Hash -> invalid_arg "Index.find_range: hash index has no order"
  | Ordered ->
      let acc = ref [] in
      Key_tree.iter_range ?lo ?hi (fun _ rows -> acc := rows :: !acc) t.tree;
      List.concat (List.rev !acc)

let cardinality t =
  match t.kind with
  | Hash -> Key_tbl.length t.hash
  | Ordered -> Key_tree.length t.tree
