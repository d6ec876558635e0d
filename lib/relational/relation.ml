exception Key_violation of string

type t = {
  name : string;
  schema : Schema.t;
  key : string list option;
  rows : Tuple.t option Vec.t;
  mutable live : int;
  mutable version : int;
  mutable indexes : Index.t list;
}

let create ~name ~schema ?key () =
  let t =
    { name; schema; key; rows = Vec.create (); live = 0; version = 0; indexes = [] }
  in
  (match key with
  | Some attrs ->
      List.iter (fun a -> ignore (Schema.pos schema a)) attrs;
      t.indexes <- [ Index.create Index.Hash ~attrs ]
  | None -> ());
  t

let name t = t.name
let schema t = t.schema
let key t = t.key
let cardinality t = t.live
let version t = t.version

(* The index over exactly [attrs], compared attribute by attribute: no
   string is built per probe. *)
let rec find_in attrs = function
  | [] -> None
  | ix :: rest ->
      if List.equal String.equal (Index.attrs ix) attrs then Some ix else find_in attrs rest

let find_index t attrs = find_in attrs t.indexes

let has_index t attrs = Option.is_some (find_index t attrs)
let indexed_attrs t = List.map Index.attrs t.indexes

let key_of t attrs tuple =
  List.map (fun a -> Tuple.field t.schema tuple a) attrs

let index_add t tuple row =
  List.iter (fun ix -> Index.add ix (key_of t (Index.attrs ix) tuple) row) t.indexes

let index_remove t tuple row =
  List.iter
    (fun ix -> Index.remove ix (key_of t (Index.attrs ix) tuple) row)
    t.indexes

let check_key t tuple =
  match t.key with
  | None -> ()
  | Some attrs -> (
      match find_index t attrs with
      | None -> ()
      | Some ix ->
          let k = key_of t attrs tuple in
          if Index.find ix k <> [] then
            raise
              (Key_violation
                 (Format.asprintf "%s: duplicate key %a" t.name Value.pp_list k)))

let insert t tuple =
  if not (Tuple.type_check t.schema tuple) then
    invalid_arg
      (Format.asprintf "Relation.insert %s: tuple %a does not match schema %a"
         t.name Tuple.pp tuple Schema.pp t.schema);
  check_key t tuple;
  let row = Vec.push t.rows (Some tuple) in
  index_add t tuple row;
  t.live <- t.live + 1;
  t.version <- t.version + 1;
  Stats.incr Stats.Tuple_write;
  row

let insert_all t tuples = List.iter (fun tu -> ignore (insert t tu)) tuples

let get t row = if row < Vec.length t.rows then Vec.get t.rows row else None

let delete t row =
  match get t row with
  | None -> None
  | Some tuple ->
      Vec.set t.rows row None;
      index_remove t tuple row;
      t.live <- t.live - 1;
      t.version <- t.version + 1;
      Some tuple

let update t row tuple =
  match get t row with
  | None -> invalid_arg "Relation.update: dead row"
  | Some old ->
      if not (Tuple.type_check t.schema tuple) then
        invalid_arg "Relation.update: tuple does not match schema";
      (* allow key-preserving updates; re-check only if the key changed *)
      (match t.key with
      | Some attrs
        when not (Value.equal_list (key_of t attrs old) (key_of t attrs tuple))
        ->
          check_key t tuple
      | Some _ | None -> ());
      index_remove t old row;
      Vec.set t.rows row (Some tuple);
      index_add t tuple row;
      t.version <- t.version + 1;
      Stats.incr Stats.Tuple_write

let iter f t =
  Vec.iteri
    (fun row slot ->
      match slot with
      | None -> ()
      | Some tuple ->
          Stats.incr Stats.Tuple_read;
          f row tuple)
    t.rows

let fold f acc t =
  let acc = ref acc in
  iter (fun _ tuple -> acc := f !acc tuple) t;
  !acc

let to_list t = List.rev (fold (fun acc tu -> tu :: acc) [] t)

let delete_where t pred =
  let matches = Predicate.compile t.schema pred in
  let victims = ref [] in
  iter (fun row tuple -> if matches tuple then victims := row :: !victims) t;
  List.iter (fun row -> ignore (delete t row)) !victims;
  List.length !victims

let create_index t kind attrs =
  List.iter (fun a -> ignore (Schema.pos t.schema a)) attrs;
  let already =
    List.exists
      (fun ix -> Index.kind ix = kind && List.equal String.equal (Index.attrs ix) attrs)
      t.indexes
  in
  (* a same-attribute index of a different kind is allowed (e.g. an
     ordered index shadowing the key's hash index for range probes);
     prepending makes it the one lookups use *)
  if not already then begin
    let ix = Index.create kind ~attrs in
    iter (fun row tuple -> Index.add ix (key_of t attrs tuple) row) t;
    t.indexes <- ix :: t.indexes
  end

let lookup_rows t ~attrs key =
  match find_index t attrs with
  | Some ix -> Index.find ix key
  | None ->
      let hits = ref [] in
      iter
        (fun row tuple ->
          if Value.equal_list (key_of t attrs tuple) key then hits := row :: !hits)
        t;
      List.rev !hits

let lookup t ~attrs key =
  List.filter_map (get t) (lookup_rows t ~attrs key)

let row_bound t = Vec.length t.rows

let lookup_rows_bounded t ~attrs key ~lo ~hi =
  let lo = max lo 0 and hi = min hi (Vec.length t.rows) in
  if lo >= hi then []
  else
    match find_index t attrs with
    | Some ix -> Index.find_bounded ix key ~lo ~hi
    | None ->
        (* scan fallback restricted to the row range; each inspected
           slot bumps [Tuple_read] like the unbounded scan would *)
        let hits = ref [] in
        for row = hi - 1 downto lo do
          match Vec.get t.rows row with
          | None -> ()
          | Some tuple ->
              Stats.incr Stats.Tuple_read;
              if Value.equal_list (key_of t attrs tuple) key then
                hits := row :: !hits
        done;
        !hits

let lookup_bounded t ~attrs key ~lo ~hi =
  List.filter_map (get t) (lookup_rows_bounded t ~attrs key ~lo ~hi)

let find_by_key t key =
  match t.key with
  | None -> invalid_arg "Relation.find_by_key: relation has no primary key"
  | Some attrs -> (
      match lookup t ~attrs key with
      | [] -> None
      | [ tuple ] -> Some tuple
      | _ :: _ :: _ -> assert false (* uniqueness enforced on insert *))

let pp ppf t =
  Format.fprintf ppf "@[<v2>%s %a [%d rows]" t.name Schema.pp t.schema t.live;
  iter (fun _ tuple -> Format.fprintf ppf "@,%a" (Tuple.pp_with t.schema) tuple) t;
  Format.fprintf ppf "@]"
