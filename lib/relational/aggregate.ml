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

type state =
  | Count_st of int
  | Sum_st of Value.t option (* None = empty group *)
  | Minmax_st of Value.t option
  | Avg_st of float * int (* running sum, count of non-null *)
  | Moments_st of { n : int; sum : float; sumsq : float }

let init = function
  | Count -> Count_st 0
  | Sum -> Sum_st None
  | Min | Max -> Minmax_st None
  | Avg -> Avg_st (0., 0)
  | Var | Stddev -> Moments_st { n = 0; sum = 0.; sumsq = 0. }

let step func st v =
  Stats.incr Stats.Agg_step;
  match func, st with
  | Count, Count_st n -> Count_st (if Value.is_null v then n else n + 1)
  | Sum, Sum_st acc ->
      if Value.is_null v then st
      else Sum_st (Some (match acc with None -> v | Some a -> Value.add a v))
  | Min, Minmax_st acc ->
      if Value.is_null v then st
      else
        Minmax_st
          (Some
             (match acc with
             | None -> v
             | Some a -> if Value.compare v a < 0 then v else a))
  | Max, Minmax_st acc ->
      if Value.is_null v then st
      else
        Minmax_st
          (Some
             (match acc with
             | None -> v
             | Some a -> if Value.compare v a > 0 then v else a))
  | Avg, Avg_st (s, n) ->
      if Value.is_null v then st else Avg_st (s +. Value.to_float v, n + 1)
  | (Var | Stddev), Moments_st { n; sum; sumsq } ->
      if Value.is_null v then st
      else
        let x = Value.to_float v in
        Moments_st { n = n + 1; sum = sum +. x; sumsq = sumsq +. (x *. x) }
  | (Count | Sum | Min | Max | Avg | Var | Stddev), _ ->
      invalid_arg "Aggregate.step: state does not match function"

type inverse = Inverted of state | Reprobe

(* The weight −1 transition.  COUNT/SUM/AVG/VAR/STDDEV are group
   homomorphisms over (ℤ, +) / (ℝ, +) and invert exactly; MIN/MAX live
   in a semilattice with no inverse, so retracting the current extremum
   (or any value the state cannot account for) demands a re-probe of
   the group's retained history.  Null arguments are skipped exactly as
   {!step} skips them, so step∘unstep = id tuple-wise. *)
let unstep func st v =
  Stats.incr Stats.Agg_step;
  match func, st with
  | Count, Count_st n -> Inverted (Count_st (if Value.is_null v then n else n - 1))
  | Sum, Sum_st acc ->
      if Value.is_null v then Inverted st
      else (
        match acc with
        | None -> Reprobe (* nothing to invert: the state never saw [v] *)
        | Some a -> Inverted (Sum_st (Some (Value.sub a v))))
  | (Min | Max), Minmax_st acc ->
      if Value.is_null v then Inverted st
      else (
        match acc with
        | None -> Reprobe
        | Some a ->
            let c = Value.compare v a in
            if (func = Min && c > 0) || (func = Max && c < 0) then Inverted st
            else Reprobe (* retracting the extremum — or a value outside
                            the state's range *))
  | Avg, Avg_st (s, n) ->
      if Value.is_null v then Inverted st
      else if n <= 0 then Reprobe
      else if n = 1 then Inverted (Avg_st (0., 0))
      else Inverted (Avg_st (s -. Value.to_float v, n - 1))
  | (Var | Stddev), Moments_st { n; sum; sumsq } ->
      if Value.is_null v then Inverted st
      else if n <= 0 then Reprobe
      else if n = 1 then Inverted (Moments_st { n = 0; sum = 0.; sumsq = 0. })
      else
        let x = Value.to_float v in
        Inverted
          (Moments_st { n = n - 1; sum = sum -. x; sumsq = sumsq -. (x *. x) })
  | (Count | Sum | Min | Max | Avg | Var | Stddev), _ ->
      invalid_arg "Aggregate.unstep: state does not match function"

let merge func a b =
  match func, a, b with
  | Count, Count_st x, Count_st y -> Count_st (x + y)
  | Sum, Sum_st x, Sum_st y -> (
      match x, y with
      | None, s | s, None -> Sum_st s
      | Some x, Some y -> Sum_st (Some (Value.add x y)))
  | Min, Minmax_st x, Minmax_st y -> (
      match x, y with
      | None, s | s, None -> Minmax_st s
      | Some x, Some y -> Minmax_st (Some (if Value.compare x y <= 0 then x else y)))
  | Max, Minmax_st x, Minmax_st y -> (
      match x, y with
      | None, s | s, None -> Minmax_st s
      | Some x, Some y -> Minmax_st (Some (if Value.compare x y >= 0 then x else y)))
  | Avg, Avg_st (s1, n1), Avg_st (s2, n2) -> Avg_st (s1 +. s2, n1 + n2)
  | (Var | Stddev), Moments_st a, Moments_st b ->
      Moments_st
        { n = a.n + b.n; sum = a.sum +. b.sum; sumsq = a.sumsq +. b.sumsq }
  | (Count | Sum | Min | Max | Avg | Var | Stddev), _, _ ->
      invalid_arg "Aggregate.merge: state does not match function"

let final func st =
  match func, st with
  | Count, Count_st n -> Value.Int n
  | Sum, Sum_st None -> Value.Null
  | Sum, Sum_st (Some v) -> v
  | (Min | Max), Minmax_st acc -> (
      match acc with None -> Value.Null | Some v -> v)
  | Avg, Avg_st (_, 0) -> Value.Null
  | Avg, Avg_st (s, n) -> Value.Float (s /. float_of_int n)
  | (Var | Stddev), Moments_st { n = 0; _ } -> Value.Null
  | (Var | Stddev), Moments_st { n; sum; sumsq } ->
      let nf = float_of_int n in
      let mean = sum /. nf in
      (* population variance, clamped against rounding *)
      let var = Float.max 0. ((sumsq /. nf) -. (mean *. mean)) in
      Value.Float (match func with Stddev -> sqrt var | _ -> var)
  | (Count | Sum | Min | Max | Avg | Var | Stddev), _ ->
      invalid_arg "Aggregate.final: state does not match function"

let batch func values =
  final func (List.fold_left (step func) (init func) values)

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

let put_state buf = function
  | Count_st n ->
      Buffer.add_char buf '\x00';
      Codec.put_int buf n
  | Sum_st v ->
      Buffer.add_char buf '\x01';
      Codec.put_option Codec.put_value buf v
  | Minmax_st v ->
      Buffer.add_char buf '\x02';
      Codec.put_option Codec.put_value buf v
  | Avg_st (s, n) ->
      Buffer.add_char buf '\x03';
      Codec.put_float buf s;
      Codec.put_int buf n
  | Moments_st { n; sum; sumsq } ->
      Buffer.add_char buf '\x04';
      Codec.put_int buf n;
      Codec.put_float buf sum;
      Codec.put_float buf sumsq

let get_state r =
  match Codec.byte r with
  | 0 -> Count_st (Codec.int_ r)
  | 1 -> Sum_st (Codec.option Codec.value r)
  | 2 -> Minmax_st (Codec.option Codec.value r)
  | 3 ->
      let s = Codec.float_ r in
      Avg_st (s, Codec.int_ r)
  | 4 ->
      let n = Codec.int_ r in
      let sum = Codec.float_ r in
      Moments_st { n; sum; sumsq = Codec.float_ r }
  | t -> Codec.fail "unknown aggregate state tag %#x" t

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
     empty), stepped through [Value.add] exactly as [step] does;
   - MIN/MAX: one value (Null while empty: a stored extremum is never
     Null, since [step] skips Null);
   - AVG: one int (count) and one float (sum);
   - VAR/STDDEV: one int (count) and two floats (sum, sum of squares).

   Every transition mirrors [step]/[unstep] operation for operation, so
   [states] of a cell block is, byte for byte under [put_state], the
   state the functional fold would hold. *)

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

let state_of l c j =
  let o = l.int_at.(j) and f = l.float_at.(j) and v = l.val_at.(j) in
  let opt = function Value.Null -> None | x -> Some x in
  match l.funcs.(j) with
  | Count -> Count_st c.ints.(o)
  | Sum when l.boxed.(j) -> Sum_st (opt c.vals.(v))
  | Sum -> (
      match c.ints.(o) with
      | 0 -> Sum_st None
      | 1 -> Sum_st (Some (Value.Int c.ints.(o + 1)))
      | _ -> Sum_st (Some (Value.Float c.floats.(f))))
  | Min | Max -> Minmax_st (opt c.vals.(v))
  | Avg -> Avg_st (c.floats.(f), c.ints.(o))
  | Var | Stddev ->
      Moments_st { n = c.ints.(o); sum = c.floats.(f); sumsq = c.floats.(f + 1) }

let states l c = List.init (arity l) (state_of l c)
let finals l c = List.init (arity l) (fun j -> final l.funcs.(j) (state_of l c j))

let of_states l ~weight states =
  if List.length states <> arity l then
    invalid_arg "Aggregate.of_states: aggregate-state arity mismatch";
  let c = fresh l in
  c.weight <- weight;
  let mismatch () = invalid_arg "Aggregate.of_states: state does not match function" in
  List.iteri
    (fun j st ->
      let o = l.int_at.(j) and f = l.float_at.(j) and v = l.val_at.(j) in
      match l.funcs.(j), st with
      | Count, Count_st n -> c.ints.(o) <- n
      | Sum, Sum_st acc when l.boxed.(j) -> c.vals.(v) <- Option.value ~default:Value.Null acc
      | Sum, Sum_st None -> ()
      | Sum, Sum_st (Some (Value.Int x)) ->
          c.ints.(o) <- 1;
          c.ints.(o + 1) <- x
      | Sum, Sum_st (Some (Value.Float x)) ->
          c.ints.(o) <- 2;
          c.floats.(f) <- x
      | (Min | Max), Minmax_st acc -> c.vals.(v) <- Option.value ~default:Value.Null acc
      | Avg, Avg_st (s, n) ->
          c.ints.(o) <- n;
          c.floats.(f) <- s
      | (Var | Stddev), Moments_st { n; sum; sumsq } ->
          c.ints.(o) <- n;
          c.floats.(f) <- sum;
          c.floats.(f + 1) <- sumsq
      | (Count | Sum | Min | Max | Avg | Var | Stddev), _ -> mismatch ())
    states;
  c
