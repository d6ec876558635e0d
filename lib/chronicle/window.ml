open Relational

type t = {
  layout : Aggregate.layout;
  width : int; (* bucket width in chronons *)
  cells : Aggregate.cells array; (* cyclic: slot = bucket_index mod n *)
  closed : Aggregate.cells; (* merge of all non-head buckets *)
  mutable head : int; (* absolute index of the newest (open) bucket *)
  mutable clock : Seqnum.chronon;
  mutable start : Seqnum.chronon;
  mutable rolls : int;
}

let create ~layout ~buckets ~bucket_width ~start =
  if buckets <= 0 || bucket_width <= 0 then
    invalid_arg "Window.create: buckets and bucket_width must be positive";
  {
    layout;
    width = bucket_width;
    cells = Array.init buckets (fun _ -> Aggregate.fresh layout);
    closed = Aggregate.fresh layout;
    head = 0;
    clock = start;
    start;
    rolls = 0;
  }

let buckets t = Array.length t.cells
let bucket_width t = t.width
let now t = t.clock
let rolls t = t.rolls

let slot t abs_index = abs_index mod Array.length t.cells

let bucket_of t chronon = (chronon - t.start) / t.width

(* Recompute the cached merge of every bucket except the open head, in
   slot order: O(buckets), paid once per rollover.  The slot [d] places
   behind the head holds bucket [t.head - d]; a slot whose bucket would
   precede bucket 0 was never stepped, so it is skipped. *)
let recompute_closed t =
  let n = Array.length t.cells in
  let head = slot t t.head in
  Aggregate.reset t.closed;
  for i = 0 to n - 1 do
    let d = (head - i + n) mod n in
    if d > 0 && d <= t.head then Aggregate.merge_cells t.layout ~into:t.closed t.cells.(i)
  done

let advance t chronon =
  if chronon < t.clock then
    invalid_arg
      (Printf.sprintf "Window.advance: chronon %d is before the clock %d"
         chronon t.clock);
  t.clock <- chronon;
  let target = bucket_of t chronon in
  if target > t.head then begin
    let n = Array.length t.cells in
    (* clear every bucket skipped over (slots are reused: this is the
       space reuse that expiration dates enable in §5.1) *)
    let first_new = t.head + 1 in
    let clear_from = max first_new (target - n + 1) in
    for abs = clear_from to target do
      Aggregate.reset t.cells.(slot t abs);
      t.rolls <- t.rolls + 1
    done;
    t.head <- target;
    recompute_closed t
  end

let add t chronon tu =
  advance t chronon;
  Stats.add Stats.Agg_step (Aggregate.arity t.layout);
  Aggregate.step_cells t.layout t.cells.(slot t t.head) tu

let total t =
  let all = Aggregate.copy t.closed in
  Aggregate.merge_cells t.layout ~into:all t.cells.(slot t t.head);
  Aggregate.finals t.layout all

let bucket_totals t =
  let n = Array.length t.cells in
  List.init n (fun k ->
      let abs = t.head - (n - 1) + k in
      if abs < 0 then List.init (Aggregate.arity t.layout) (fun _ -> Value.Null)
      else Aggregate.finals t.layout t.cells.(slot t abs))

type dump = {
  d_start : Seqnum.chronon;
  d_head : int;
  d_clock : Seqnum.chronon;
  d_cells : Aggregate.cells list;
}

let dump t =
  {
    d_start = t.start;
    d_head = t.head;
    d_clock = t.clock;
    d_cells = Array.to_list (Array.map Aggregate.copy t.cells);
  }

let load t { d_start; d_head; d_clock; d_cells } =
  if List.length d_cells <> Array.length t.cells then
    invalid_arg "Window.load: bucket count mismatch";
  List.iteri (fun i saved -> Aggregate.restore ~saved t.cells.(i)) d_cells;
  t.start <- d_start;
  t.head <- d_head;
  t.clock <- d_clock;
  recompute_closed t
