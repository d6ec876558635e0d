type t = Value.t array

let make = Array.of_list
let arity = Array.length
let get t i = t.(i)
let field schema t name = t.(Schema.pos schema name)

let projector schema names =
  Stats.incr Stats.Projector_compile;
  let positions = Array.of_list (List.map (Schema.pos schema) names) in
  let n = Array.length positions in
  fun t ->
    let out = Array.make n Value.Null in
    for j = 0 to n - 1 do
      out.(j) <- t.(positions.(j))
    done;
    out

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

(* Lexicographic, shorter first on a common prefix.  The loops are
   top-level functions of their arguments, so a comparison, equality
   test or hash allocates nothing — the view fold runs them per tuple. *)
let rec compare_from a b i =
  let la = Array.length a and lb = Array.length b in
  if i >= la then if i >= lb then 0 else -1
  else if i >= lb then 1
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b = compare_from a b 0
let equal a b = Array.length a = Array.length b && compare_from a b 0 = 0

(* Integers (and floats holding one, which [Value.equal] equates with
   it) hash by a multiply-shift mix computed inline; other values by
   [Value.hash]. *)
let mix i =
  let h = i * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash_value = function
  | Value.Int i -> mix i
  | Value.Float f when Float.is_integer f && Float.abs f < 1e18 -> mix (int_of_float f)
  | v -> Value.hash v

let rec hash_from t i acc =
  if i >= Array.length t then acc else hash_from t (i + 1) ((acc * 31) + hash_value t.(i))

let hash t = hash_from t 0 7
let hash_list l = List.fold_left (fun acc v -> (acc * 31) + hash_value v) 7 l

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
