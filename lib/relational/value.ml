type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = TBool | TInt | TFloat | TStr

let ty_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr

let ty_name = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "string"

(* Rank used to order values of distinct, non-coercible types.  Int and
   Float share a rank so that numeric comparison is consistent with
   equality across the two representations. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | Str _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash i
  | Float f ->
      (* Hash floats that are exact integers like the integer, so that
         [equal] implies equal hashes across Int/Float. *)
      if Float.is_integer f && Float.abs f < 1e18 then Hashtbl.hash (int_of_float f)
      else Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let is_null = function Null -> true | Bool _ | Int _ | Float _ | Str _ -> false

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | Null | Bool _ | Str _ -> invalid_arg "Value.to_float: non-numeric"

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | Null | Bool _ | Str _ -> invalid_arg "Value.to_int: non-numeric"

let add a b =
  match a, b with
  | Int x, Int y -> Int (x + y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a +. to_float b)
  | _ -> invalid_arg "Value.add: non-numeric"

let sub a b =
  match a, b with
  | Int x, Int y -> Int (x - y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a -. to_float b)
  | _ -> invalid_arg "Value.sub: non-numeric"

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s

let to_string v = Format.asprintf "%a" pp v

let rec compare_list a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' ->
      let c = compare x y in
      if c <> 0 then c else compare_list a' b'

let equal_list a b = compare_list a b = 0

let hash_list l = List.fold_left (fun acc v -> (acc * 31) + hash v) 7 l

let pp_list ppf l =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
    l
