type t = Value.t array

let make = Array.of_list
let arity = Array.length
let get t i = t.(i)
let field schema t name = t.(Schema.pos schema name)

let projector schema names =
  Stats.incr Stats.Projector_compile;
  let positions = Array.of_list (List.map (Schema.pos schema) names) in
  fun t -> Array.map (fun i -> t.(i)) positions

let project schema names t = projector schema names t

let concat = Array.append

let remove schema name t =
  let i = Schema.pos schema name in
  Array.init (Array.length t - 1) (fun j -> if j < i then t.(j) else t.(j + 1))

let type_check schema t =
  arity t = Schema.arity schema
  && Array.for_all2
       (fun (a : Schema.attr) v ->
         match Value.ty_of v with None -> true | Some ty -> ty = a.ty)
       (Schema.attrs schema) t

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0
let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Value.pp)
    (Array.to_seq t)

let pp_with schema ppf t =
  let attrs = Schema.attrs schema in
  Format.fprintf ppf "@[<h>(%a)@]"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (a, v) -> Format.fprintf ppf "%s=%a" a.Schema.name Value.pp v))
    (Seq.zip (Array.to_seq attrs) (Array.to_seq t))

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let dedup tuples =
  let seen = Tbl.create 64 in
  List.filter
    (fun t ->
      if Tbl.mem seen t then false
      else begin
        Tbl.add seen t ();
        true
      end)
    tuples

let diff a b =
  let excluded = Tbl.create 64 in
  List.iter (fun t -> Tbl.replace excluded t ()) b;
  List.filter
    (fun t ->
      if Tbl.mem excluded t then false
      else begin
        (* collapse duplicates within [a] as well: set semantics *)
        Tbl.add excluded t ();
        true
      end)
    a
