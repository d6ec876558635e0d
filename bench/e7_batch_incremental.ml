(* E7 — §5.3: batch vs incremental computation of a tiered discount.

   The incremental figure is maintained in O(1) per call and is always
   current; the batch figure requires one O(month) scan of retained
   call records at period end and is stale in between.  Both agree at
   period end. *)

open Relational
open Chronicle_core
open Chronicle_workload

let subscribers = 200

let run () =
  Measure.section "E7: §5.3 — batch to incremental (tiered discounts)"
    "A month of calls; the US-1995 plan (10% over $10, 20% over $25).  \
     The incremental column is the per-call maintenance cost of the \
     expenses view; the batch column is the end-of-month recomputation \
     for all subscribers from retained history.";
  let plan = Discount.us_phone_1995 in
  let rows = ref [] in
  List.iter
    (fun month_calls ->
      let group = Group.create "g" in
      let calls =
        Chron.create ~group ~retention:Chron.Full ~name:"calls"
          Telecom.call_schema
      in
      let def =
        Discount.view_def ~name:"expenses" ~chronicle:calls
          ~customer_attr:"number" ~amount_attr:"cost"
      in
      let view = View.create def in
      let rng = Rng.create 3 in
      let zipf = Zipf.create ~n:subscribers ~s:1.0 in
      let incr_cost =
        Measure.per_op ~times:month_calls (fun _ ->
            let tu = Telecom.call rng zipf in
            let sn = Chron.append calls [ tu ] in
            View.apply view
              (Delta.of_zset {
                Delta.plus =
                  Delta.eval (Sca.body def) ~sn ~batch:[ (calls, [ Chron.tag sn tu ]) ];
                minus = [];
              }))
      in
      (* end-of-month batch for every subscriber *)
      let batch_secs =
        Measure.median_time ~runs:3 (fun () ->
            for s = 1 to subscribers do
              ignore
                (Discount.batch_discounted plan calls ~customer_attr:"number"
                   ~amount_attr:"cost" ~customer:(Value.Int s))
            done)
      in
      (* agreement check *)
      let disagreements = ref 0 in
      for s = 1 to subscribers do
        let inc = Discount.current_discounted plan view ~customer:(Value.Int s) in
        let bat =
          Discount.batch_discounted plan calls ~customer_attr:"number"
            ~amount_attr:"cost" ~customer:(Value.Int s)
        in
        if Float.abs (inc -. bat) > 1e-6 then incr disagreements
      done;
      rows :=
        [
          Measure.i month_calls;
          Measure.f2 incr_cost.Measure.micros;
          Measure.f1 (batch_secs *. 1e3);
          Measure.i !disagreements;
        ]
        :: !rows)
    [ 1_000; 10_000; 100_000 ];
  Measure.print_table
    ~title:"E7  incremental vs end-of-period batch"
    ~header:
      [ "calls/month"; "incremental us/call"; "batch ms (all subs)";
        "disagreements" ]
    (List.rev !rows);
  Measure.note
    "staleness: the incremental figure is current after every call; the \
     batch figure is only correct once per period."
