
type t =
  | Finite of Interval.t array (* sorted by start *)
  | Periodic of { start : Seqnum.chronon; width : int; stride : int }

let finite = function
  | [] -> invalid_arg "Calendar.finite: empty calendar"
  | intervals ->
      let a = Array.of_list intervals in
      Array.sort Interval.compare a;
      Finite a

let periodic ~start ~width ~stride =
  if width <= 0 || stride <= 0 then
    invalid_arg "Calendar.periodic: width and stride must be positive";
  Periodic { start; width; stride }

let tiling ~start ~width = periodic ~start ~width ~stride:width
let sliding ~start ~width = periodic ~start ~width ~stride:1

let interval t i =
  if i < 0 then None
  else
    match t with
    | Finite a -> if i < Array.length a then Some a.(i) else None
    | Periodic { start; width; stride } ->
        let s = start + (i * stride) in
        Some (Interval.make ~start:s ~stop:(s + width))

let is_finite = function Finite _ -> true | Periodic _ -> false

let interval_count = function
  | Finite a -> Some (Array.length a)
  | Periodic _ -> None

let covering t c =
  match t with
  | Finite a ->
      let hits = ref [] in
      Array.iteri (fun i iv -> if Interval.contains iv c then hits := i :: !hits) a;
      List.rev !hits
  | Periodic { start; width; stride } ->
      (* indices i with start + i*stride <= c < start + i*stride + width,
         i.e. (c - start - width)/stride < i <= (c - start)/stride *)
      if c < start then []
      else
        let hi = (c - start) / stride in
        let lo =
          let bound = c - start - width in
          if bound < 0 then 0
          else (bound / stride) + 1
        in
        if lo > hi then [] else List.init (hi - lo + 1) (fun k -> lo + k)

let first_covering t c = match covering t c with [] -> None | i :: _ -> Some i

let max_concurrent t =
  match t with
  | Periodic { width; stride; _ } -> Some (((width - 1) / stride) + 1)
  | Finite a ->
      (* exact: for each interval count the overlaps at its start *)
      let best = ref 0 in
      Array.iter
        (fun iv ->
          let n =
            Array.fold_left
              (fun acc other ->
                if Interval.contains other iv.Interval.start then acc + 1 else acc)
              0 a
          in
          if n > !best then best := n)
        a;
      Some !best

let pp ppf = function
  | Finite a ->
      Format.fprintf ppf "finite calendar {%a}"
        (Format.pp_print_seq
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           Interval.pp)
        (Array.to_seq a)
  | Periodic { start; width; stride } ->
      Format.fprintf ppf "periodic calendar start=%d width=%d stride=%d" start
        width stride

type spec =
  | Finite_spec of Interval.t list
  | Periodic_spec of { start : Seqnum.chronon; width : int; stride : int }

let spec = function
  | Finite a -> Finite_spec (Array.to_list a)
  | Periodic { start; width; stride } -> Periodic_spec { start; width; stride }

let of_spec = function
  | Finite_spec intervals -> finite intervals
  | Periodic_spec { start; width; stride } -> periodic ~start ~width ~stride
