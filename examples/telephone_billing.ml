(* Telephone billing (§1 and §5.3): per-subscriber monthly expense
   views maintained incrementally, the tiered discount plan ("10% over
   $10, 20% over $25") always current instead of computed in batch at
   month end, and monthly billing periods as periodic views over a
   tiling calendar.

   Run with: dune exec examples/telephone_billing.exe *)

open Relational
open Chronicle_core
open Chronicle_workload

let day_len = 1 (* one chronon = one day *)
let month_len = 30 * day_len

let () =
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~retention:(Chron.Window 2000) ~name:"calls"
       Telecom.call_schema);
  let calls = Db.chronicle db "calls" in

  (* The running monthly expenses view driving the discount plan. *)
  let expenses_def =
    Discount.view_def ~name:"expenses" ~chronicle:calls ~customer_attr:"number"
      ~amount_attr:"cost"
  in

  (* One expenses view per billing month: a periodic view over a tiling
     calendar.  Expired statements are reclaimed after 90 days. *)
  let months = Calendar.tiling ~start:0 ~width:month_len in
  let statements =
    Periodic.create ~expire_after:(90 * day_len) ~def:expenses_def
      ~calendar:months ()
  in
  Db.define_temporal db (Db.Periodic_def { name = "statements"; family = statements });

  let plan = Discount.us_phone_1995 in
  let rng = Rng.create 2024 in
  let zipf = Zipf.create ~n:50 ~s:1.1 in

  (* Two months of traffic, ~12 calls/day. *)
  for day = 0 to (2 * 30) - 1 do
    Db.advance_clock db day;
    for _ = 1 to 12 do
      ignore (Db.append db "calls" [ Telecom.call rng zipf ])
    done
  done;

  (* Mid-month view: the discount figure is already current (the batch
     system would still show last month's). *)
  let month1 =
    match Periodic.get statements 1 with
    | Some v -> v
    | None -> failwith "month 1 missing"
  in
  Format.printf "current month-2 discounted totals (top subscribers):@.";
  List.iter
    (fun number ->
      let total = Discount.current_total month1 ~customer:(Value.Int number) in
      let due = Discount.current_discounted plan month1 ~customer:(Value.Int number) in
      Format.printf "  subscriber %d: undiscounted $%.2f, rate %.0f%%, due $%.2f@."
        number total
        (100. *. Discount.rate plan total)
        due)
    [ 1; 2; 3 ];

  (* Month 1 closed at day 30: its statement is frozen.  Verify the
     incremental statement equals a batch recomputation over the raw
     call detail records (which we happened to retain for the check). *)
  let month0 =
    match Periodic.get statements 0 with
    | Some v -> v
    | None -> failwith "month 0 missing"
  in
  let subscriber = Value.Int 1 in
  let batch_total =
    (* month 0 received sequence numbers 1..360 (12 calls/day for 30
       days); replay them from the retained call-detail window *)
    let schema = Chron.schema calls in
    let npos = Schema.pos schema "number" and cpos = Schema.pos schema "cost" in
    let spos = Schema.pos schema Seqnum.attr in
    let total = ref 0. in
    Chron.scan
      (fun tu ->
        let sn = Seqnum.of_value (Tuple.get tu spos) in
        if sn <= 30 * 12 && Value.equal (Tuple.get tu npos) subscriber then
          total := !total +. Value.to_float (Tuple.get tu cpos))
      calls;
    !total
  in
  let incremental_total = Discount.current_total month0 ~customer:subscriber in
  Format.printf
    "@.month-1 statement for subscriber 1: incremental $%.2f, batch replay \
     $%.2f (%s)@."
    incremental_total batch_total
    (if Float.abs (incremental_total -. batch_total) < 1e-6 then "equal"
     else "MISMATCH");

  Format.printf "open statements: %d, finalized kept: %d, expired: %d@."
    (List.length (Periodic.active statements))
    (List.length (Periodic.finalized statements))
    (Periodic.expired_total statements);

  (* The §1 power-on query: total minutes this month for a subscriber,
     from a second persistent view, in O(1). *)
  let _minutes =
    Db.define_view db
      (Sca.define ~name:"minutes" ~body:(Ca.Chronicle calls)
         (Sca.Group_agg ([ "number" ], [ Aggregate.sum "minutes" "total_minutes" ])))
  in
  ignore (Db.append db "calls" [ Telecom.call rng zipf ]);
  match Db.summary db ~view:"minutes" [ Value.Int 1 ] with
  | Some _row -> Format.printf "power-on minutes query answered from the view@."
  | None -> Format.printf "subscriber 1 has no calls yet@."
