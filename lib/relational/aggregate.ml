type func = Count | Sum | Min | Max | Avg | Var | Stddev

type call = { func : func; arg : string option; alias : string }

let count_star alias = { func = Count; arg = None; alias }
let count arg alias = { func = Count; arg = Some arg; alias }
let sum arg alias = { func = Sum; arg = Some arg; alias }
let min_ arg alias = { func = Min; arg = Some arg; alias }
let max_ arg alias = { func = Max; arg = Some arg; alias }
let avg arg alias = { func = Avg; arg = Some arg; alias }
let var_ arg alias = { func = Var; arg = Some arg; alias }
let stddev arg alias = { func = Stddev; arg = Some arg; alias }

let func_name = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Min -> "MIN"
  | Max -> "MAX"
  | Avg -> "AVG"
  | Var -> "VAR"
  | Stddev -> "STDDEV"

let func_of_name s =
  match String.uppercase_ascii s with
  | "COUNT" -> Some Count
  | "SUM" -> Some Sum
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | "AVG" -> Some Avg
  | "VAR" | "VARIANCE" -> Some Var
  | "STDDEV" -> Some Stddev
  | _ -> None

let output_ty func arg_ty =
  match func, arg_ty with
  | Count, _ -> Value.TInt
  | (Avg | Var | Stddev), _ -> Value.TFloat
  | (Sum | Min | Max), Some ty -> ty
  | (Sum | Min | Max), None ->
      invalid_arg "Aggregate.output_ty: SUM/MIN/MAX need an argument"

let result_schema schema group_attrs calls =
  let group_part =
    List.map (fun a -> (a, Schema.ty schema a)) group_attrs
  in
  let agg_part =
    List.map
      (fun c ->
        let arg_ty = Option.map (Schema.ty schema) c.arg in
        (c.alias, output_ty c.func arg_ty))
      calls
  in
  Schema.make (group_part @ agg_part)

let pp_call ppf c =
  match c.arg with
  | None -> Format.fprintf ppf "%s(*) AS %s" (func_name c.func) c.alias
  | Some a -> Format.fprintf ppf "%s(%s) AS %s" (func_name c.func) a c.alias

(* The from-scratch reference over a group's argument values, written
   apart from the cells below: GROUPBY, and with it [Audit] and the
   [Naive] baseline, check the view fold against it.  It performs the
   fold's operations in the fold's order (first value, then [Value.add]
   or the comparison per later value; float sums from 0.0), so it
   agrees with the cells bit for bit, and it counts one [Agg_step] per
   value. *)
let batch func values =
  Stats.add Stats.Agg_step (List.length values);
  let present = List.filter (fun v -> not (Value.is_null v)) values in
  let fold f = function [] -> Value.Null | v :: rest -> List.fold_left f v rest in
  let sums () =
    List.fold_left
      (fun (n, s, sq) v ->
        let x = Value.to_float v in
        (n + 1, s +. x, sq +. (x *. x)))
      (0, 0., 0.) present
  in
  match func with
  | Count -> Value.Int (List.length present)
  | Sum -> fold Value.add present
  | Min -> fold (fun a v -> if Value.compare v a < 0 then v else a) present
  | Max -> fold (fun a v -> if Value.compare v a > 0 then v else a) present
  | Avg -> (
      match sums () with 0, _, _ -> Value.Null | n, s, _ -> Value.Float (s /. float_of_int n))
  | Var | Stddev -> (
      match sums () with
      | 0, _, _ -> Value.Null
      | n, s, sq ->
          let nf = float_of_int n in
          let mean = s /. nf in
          (* population variance, clamped against rounding *)
          let var = Float.max 0. ((sq /. nf) -. (mean *. mean)) in
          Value.Float (if func = Stddev then sqrt var else var))

(* ---- cells ----

   A group's states as mutable slots, stepped in place: the view fold
   makes no allocation per tuple on an existing group.  Each call owns
   a few slots of three shared arrays:

   - COUNT: one int (the count);
   - SUM over an INT or FLOAT column: two ints (0 = empty, 1 = the INT
     sum in the second int, 2 = the FLOAT sum in its float) and one
     float — so an INT sum stays INT, and a first value of −0.0 is kept
     as it is rather than added to 0.0;
   - SUM over any other column: the sum itself as a value (Null while
     empty), stepped through [Value.add];
   - MIN/MAX: one value (Null while empty: a stored extremum is never
     Null, since a step skips Null);
   - AVG: one int (count) and one float (sum);
   - VAR/STDDEV: one int (count) and two floats (sum, sum of squares).

   Unstep is the weight −1 transition.  COUNT/SUM/AVG/VAR/STDDEV are
   group homomorphisms over (ℤ, +) / (ℝ, +) and invert exactly; MIN/MAX
   live in a semilattice with no inverse, so retracting the current
   extremum (or any value the cells cannot account for) demands a
   re-probe of the group's retained history.  Null arguments are
   skipped both ways, so step∘unstep = id tuple-wise. *)

type layout = {
  funcs : func array;
  args : int array;  (* tuple position of the argument; -1 = COUNT( * ) *)
  boxed : bool array;  (* SUM over a column that is neither INT nor FLOAT *)
  int_at : int array;
  float_at : int array;
  val_at : int array;
  n_ints : int;
  n_floats : int;
  n_vals : int;
}

type cells = {
  mutable weight : int;
  mutable stamp : int;
  ints : int array;
  floats : float array;
  vals : Value.t array;
}

let layout schema calls =
  let calls = Array.of_list calls in
  let n = Array.length calls in
  let int_at = Array.make n 0 and float_at = Array.make n 0 and val_at = Array.make n 0 in
  let boxed =
    Array.map
      (fun c ->
        c.func = Sum
        &&
        match c.arg with
        | Some a -> (
            match Schema.ty schema a with
            | Value.TInt | Value.TFloat -> false
            | Value.TBool | Value.TStr -> true)
        | None -> true)
      calls
  in
  let ni = ref 0 and nf = ref 0 and nv = ref 0 in
  let take r k =
    let at = !r in
    r := at + k;
    at
  in
  Array.iteri
    (fun j c ->
      let ints, floats, vals =
        match c.func with
        | Count -> (1, 0, 0)
        | Sum -> if boxed.(j) then (0, 0, 1) else (2, 1, 0)
        | Min | Max -> (0, 0, 1)
        | Avg -> (1, 1, 0)
        | Var | Stddev -> (1, 2, 0)
      in
      int_at.(j) <- take ni ints;
      float_at.(j) <- take nf floats;
      val_at.(j) <- take nv vals)
    calls;
  {
    funcs = Array.map (fun c -> c.func) calls;
    args =
      Array.map (fun c -> match c.arg with None -> -1 | Some a -> Schema.pos schema a) calls;
    boxed;
    int_at;
    float_at;
    val_at;
    n_ints = !ni;
    n_floats = !nf;
    n_vals = !nv;
  }

let arity l = Array.length l.funcs

let fresh l =
  {
    weight = 0;
    stamp = 0;
    ints = Array.make l.n_ints 0;
    floats = Array.make l.n_floats 0.;
    vals = Array.make l.n_vals Value.Null;
  }

let reset c =
  c.weight <- 0;
  Array.fill c.ints 0 (Array.length c.ints) 0;
  Array.fill c.floats 0 (Array.length c.floats) 0.;
  Array.fill c.vals 0 (Array.length c.vals) Value.Null

let copy c =
  { c with ints = Array.copy c.ints; floats = Array.copy c.floats; vals = Array.copy c.vals }

let restore ~saved c =
  if
    Array.length saved.ints <> Array.length c.ints
    || Array.length saved.floats <> Array.length c.floats
    || Array.length saved.vals <> Array.length c.vals
  then invalid_arg "Aggregate.restore: cells of another layout";
  c.weight <- saved.weight;
  Array.blit saved.ints 0 c.ints 0 (Array.length c.ints);
  Array.blit saved.floats 0 c.floats 0 (Array.length c.floats);
  Array.blit saved.vals 0 c.vals 0 (Array.length c.vals)

let count_star_arg = Value.Int 1
let arg l j tu = if l.args.(j) < 0 then count_star_arg else tu.(l.args.(j))
let non_numeric op = invalid_arg (op ^ ": non-numeric")

(* SUM's numeric cell: [Value.add] over the three tags. *)
let sum_step c o f v =
  match c.ints.(o), v with
  | _, Value.Null -> ()
  | 0, Value.Int x ->
      c.ints.(o) <- 1;
      c.ints.(o + 1) <- x
  | 0, Value.Float x ->
      c.ints.(o) <- 2;
      c.floats.(f) <- x
  | 1, Value.Int x -> c.ints.(o + 1) <- c.ints.(o + 1) + x
  | 1, Value.Float x ->
      c.ints.(o) <- 2;
      c.floats.(f) <- float_of_int c.ints.(o + 1) +. x
  | _, Value.Int x -> c.floats.(f) <- c.floats.(f) +. float_of_int x
  | _, Value.Float x -> c.floats.(f) <- c.floats.(f) +. x
  | _, (Value.Bool _ | Value.Str _) -> non_numeric "Value.add"

let sum_unstep c o f v =
  match c.ints.(o), v with
  | _, Value.Null -> true
  | 0, _ -> false
  | 1, Value.Int x ->
      c.ints.(o + 1) <- c.ints.(o + 1) - x;
      true
  | 1, Value.Float x ->
      c.ints.(o) <- 2;
      c.floats.(f) <- float_of_int c.ints.(o + 1) -. x;
      true
  | _, Value.Int x ->
      c.floats.(f) <- c.floats.(f) -. float_of_int x;
      true
  | _, Value.Float x ->
      c.floats.(f) <- c.floats.(f) -. x;
      true
  | _, (Value.Bool _ | Value.Str _) -> non_numeric "Value.sub"

let step_call l c j v =
  if not (Value.is_null v) then
    match l.funcs.(j) with
    | Count -> c.ints.(l.int_at.(j)) <- c.ints.(l.int_at.(j)) + 1
    | Sum when l.boxed.(j) ->
        let o = l.val_at.(j) in
        c.vals.(o) <- (match c.vals.(o) with Value.Null -> v | a -> Value.add a v)
    | Sum -> sum_step c l.int_at.(j) l.float_at.(j) v
    | Min ->
        let o = l.val_at.(j) in
        if Value.is_null c.vals.(o) || Value.compare v c.vals.(o) < 0 then c.vals.(o) <- v
    | Max ->
        let o = l.val_at.(j) in
        if Value.is_null c.vals.(o) || Value.compare v c.vals.(o) > 0 then c.vals.(o) <- v
    | Avg ->
        let x = Value.to_float v and o = l.int_at.(j) and f = l.float_at.(j) in
        c.floats.(f) <- c.floats.(f) +. x;
        c.ints.(o) <- c.ints.(o) + 1
    | Var | Stddev ->
        let x = Value.to_float v and o = l.int_at.(j) and f = l.float_at.(j) in
        c.ints.(o) <- c.ints.(o) + 1;
        c.floats.(f) <- c.floats.(f) +. x;
        c.floats.(f + 1) <- c.floats.(f + 1) +. (x *. x)

(* [false]: no inverse ([Reprobe]); the cell may then be left changed. *)
let unstep_call l c j v =
  Value.is_null v
  ||
  match l.funcs.(j) with
  | Count ->
      c.ints.(l.int_at.(j)) <- c.ints.(l.int_at.(j)) - 1;
      true
  | Sum when l.boxed.(j) -> (
      let o = l.val_at.(j) in
      match c.vals.(o) with
      | Value.Null -> false
      | a ->
          c.vals.(o) <- Value.sub a v;
          true)
  | Sum -> sum_unstep c l.int_at.(j) l.float_at.(j) v
  | (Min | Max) as func ->
      let a = c.vals.(l.val_at.(j)) in
      (not (Value.is_null a))
      &&
      let cmp = Value.compare v a in
      (func = Min && cmp > 0) || (func = Max && cmp < 0)
  | Avg | Var | Stddev ->
      let o = l.int_at.(j) and f = l.float_at.(j) in
      let n = c.ints.(o) in
      if n <= 0 then false
      else begin
        (if n = 1 then begin
           c.floats.(f) <- 0.;
           if l.funcs.(j) <> Avg then c.floats.(f + 1) <- 0.
         end
         else
           let x = Value.to_float v in
           c.floats.(f) <- c.floats.(f) -. x;
           if l.funcs.(j) <> Avg then c.floats.(f + 1) <- c.floats.(f + 1) -. (x *. x));
        c.ints.(o) <- n - 1;
        true
      end

let step_cells l c tu =
  for j = 0 to Array.length l.funcs - 1 do
    step_call l c j (arg l j tu)
  done;
  c.weight <- c.weight + 1

let unstep_cells l c tu =
  let inverted = ref true in
  for j = 0 to Array.length l.funcs - 1 do
    if not (unstep_call l c j (arg l j tu)) then inverted := false
  done;
  if !inverted then c.weight <- c.weight - 1;
  !inverted

(* [b]'s slots folded into [into]'s, [into]'s partial on the left;
   MIN/MAX keep [into]'s extremum on a tie. *)
let merge_call l ~into b j =
  match l.funcs.(j) with
  | Count ->
      let o = l.int_at.(j) in
      into.ints.(o) <- into.ints.(o) + b.ints.(o)
  | Sum when l.boxed.(j) -> (
      let v = l.val_at.(j) in
      match into.vals.(v), b.vals.(v) with
      | _, Value.Null -> ()
      | Value.Null, y -> into.vals.(v) <- y
      | x, y -> into.vals.(v) <- Value.add x y)
  | Sum -> (
      let o = l.int_at.(j) and f = l.float_at.(j) in
      match into.ints.(o), b.ints.(o) with
      | _, 0 -> ()
      | 0, tag ->
          into.ints.(o) <- tag;
          into.ints.(o + 1) <- b.ints.(o + 1);
          into.floats.(f) <- b.floats.(f)
      | 1, 1 -> into.ints.(o + 1) <- into.ints.(o + 1) + b.ints.(o + 1)
      | 1, _ ->
          into.ints.(o) <- 2;
          into.floats.(f) <- float_of_int into.ints.(o + 1) +. b.floats.(f)
      | _, 1 -> into.floats.(f) <- into.floats.(f) +. float_of_int b.ints.(o + 1)
      | _, _ -> into.floats.(f) <- into.floats.(f) +. b.floats.(f))
  | (Min | Max) as func ->
      let v = l.val_at.(j) in
      let x = into.vals.(v) and y = b.vals.(v) in
      if
        (not (Value.is_null y))
        && (Value.is_null x
           ||
           let cmp = Value.compare x y in
           (func = Min && cmp > 0) || (func = Max && cmp < 0))
      then into.vals.(v) <- y
  | (Avg | Var | Stddev) as func ->
      let o = l.int_at.(j) and f = l.float_at.(j) in
      into.ints.(o) <- into.ints.(o) + b.ints.(o);
      into.floats.(f) <- into.floats.(f) +. b.floats.(f);
      if func <> Avg then into.floats.(f + 1) <- into.floats.(f + 1) +. b.floats.(f + 1)

let merge_cells l ~into b =
  for j = 0 to Array.length l.funcs - 1 do
    merge_call l ~into b j
  done;
  into.weight <- into.weight + b.weight

let final l c j =
  let o = l.int_at.(j) and f = l.float_at.(j) in
  match l.funcs.(j) with
  | Count -> Value.Int c.ints.(o)
  | Sum when l.boxed.(j) -> c.vals.(l.val_at.(j))
  | Sum -> (
      match c.ints.(o) with
      | 0 -> Value.Null
      | 1 -> Value.Int c.ints.(o + 1)
      | _ -> Value.Float c.floats.(f))
  | Min | Max -> c.vals.(l.val_at.(j))
  | Avg -> (
      match c.ints.(o) with 0 -> Value.Null | n -> Value.Float (c.floats.(f) /. float_of_int n))
  | (Var | Stddev) as func -> (
      match c.ints.(o) with
      | 0 -> Value.Null
      | n ->
          let nf = float_of_int n in
          let mean = c.floats.(f) /. nf in
          (* population variance, clamped against rounding *)
          let var = Float.max 0. ((c.floats.(f + 1) /. nf) -. (mean *. mean)) in
          Value.Float (if func = Stddev then sqrt var else var))

let finals l c = List.init (arity l) (final l c)

(* ---- encoding ----

   A call's slots are written as the tagged state they hold: COUNT 0
   and its count; SUM 1 and its optional sum; MIN/MAX 2 and the
   optional extremum; AVG 3, sum and count; VAR/STDDEV 4, count, sum
   and sum of squares. *)

let tag_of = function
  | Count -> 0
  | Sum -> 1
  | Min | Max -> 2
  | Avg -> 3
  | Var | Stddev -> 4

let put_state l buf c j =
  let o = l.int_at.(j) and f = l.float_at.(j) in
  Buffer.add_char buf (Char.chr (tag_of l.funcs.(j)));
  match l.funcs.(j) with
  | Count -> Codec.put_int buf c.ints.(o)
  | Sum | Min | Max ->
      Codec.put_option Codec.put_value buf
        (match final l c j with Value.Null -> None | x -> Some x)
  | Avg ->
      Codec.put_float buf c.floats.(f);
      Codec.put_int buf c.ints.(o)
  | Var | Stddev ->
      Codec.put_int buf c.ints.(o);
      Codec.put_float buf c.floats.(f);
      Codec.put_float buf c.floats.(f + 1)

let get_state l r c j =
  let o = l.int_at.(j) and f = l.float_at.(j) and v = l.val_at.(j) in
  let func = l.funcs.(j) in
  let tag = Codec.byte r in
  if tag <> tag_of func then
    Codec.fail "aggregate state tag %#x does not match %s" tag (func_name func);
  match func with
  | Count -> c.ints.(o) <- Codec.int_ r
  | Sum when l.boxed.(j) -> c.vals.(v) <- Option.value ~default:Value.Null (Codec.option Codec.value r)
  | Sum -> (
      match Codec.option Codec.value r with
      | None | Some Value.Null -> c.ints.(o) <- 0
      | Some (Value.Int x) ->
          c.ints.(o) <- 1;
          c.ints.(o + 1) <- x
      | Some (Value.Float x) ->
          c.ints.(o) <- 2;
          c.floats.(f) <- x
      | Some (Value.Bool _ | Value.Str _) -> Codec.fail "non-numeric SUM state")
  | Min | Max -> c.vals.(v) <- Option.value ~default:Value.Null (Codec.option Codec.value r)
  | Avg ->
      c.floats.(f) <- Codec.float_ r;
      c.ints.(o) <- Codec.int_ r
  | Var | Stddev ->
      c.ints.(o) <- Codec.int_ r;
      c.floats.(f) <- Codec.float_ r;
      c.floats.(f + 1) <- Codec.float_ r

let put_cells l buf c = Codec.put_list (fun buf j -> put_state l buf c j) buf (List.init (arity l) Fun.id)

let get_cells l r =
  let n = Codec.uvarint r in
  if n <> arity l then Codec.fail "%d aggregate states for %d calls" n (arity l);
  let c = fresh l in
  for j = 0 to n - 1 do
    get_state l r c j
  done;
  c
