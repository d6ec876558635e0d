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
