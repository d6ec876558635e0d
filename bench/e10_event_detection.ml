(* E10 — §6: history-less composite-event detection.

   Throughput of the event detector as rules and pattern sizes grow,
   with the chronicle-scan counter proving that no history is re-read,
   and bounded partial-instance state. *)

open Relational
open Chronicle_core
open Chronicle_workload

let txn_schema = Banking.txn_schema

let withdrawal_over x =
  Predicate.(Or (False, And ("kind" =% Value.Str "withdrawal", "amount" <% Value.Float (-.x))))

let make_rules n =
  List.init n (fun i ->
      (Detector.rule
         ~name:(Printf.sprintf "rule_%d" i)
         ~pattern:
           (Pattern.seq
              [
                Pattern.atom "a" (withdrawal_over (float_of_int (50 + (i * 10))));
                Pattern.atom "b" (withdrawal_over (float_of_int (100 + (i * 10))));
              ])
         ~key:[ "acct" ] ~within:30 ()))

let run () =
  Measure.section "E10: §6 — history-less event detection"
    "Two-step fraud patterns correlated per account, Zipf traffic, one \
     chronon per event.  Cost grows with the number of rules, never with \
     the chronicle: the scan column stays 0 and partial state is bounded.";
  let rows = ref [] in
  List.iter
    (fun nrules ->
      let db = Db.create () in
      ignore (Db.add_chronicle db ~name:"txns" txn_schema);
      let det = Detector.create (Db.chronicle db "txns") in
      Db.add_detector db det;
      List.iter (Detector.add_rule det) (make_rules nrules);
      let rng = Rng.create 9 in
      let zipf = Zipf.create ~n:500 ~s:1.0 in
      let clock = ref 0 in
      (* warm up with history so a scan would show *)
      for _ = 1 to 5_000 do
        incr clock;
        Db.advance_clock db !clock;
        ignore (Db.append db "txns" [ Banking.txn rng zipf ])
      done;
      let cost =
        Measure.per_op ~times:5_000 (fun _ ->
            incr clock;
            Db.advance_clock db !clock;
            ignore (Db.append db "txns" [ Banking.txn rng zipf ]))
      in
      rows :=
        [
          Measure.i nrules;
          Measure.f2 cost.Measure.micros;
          Measure.f1 (Measure.counter cost Stats.Chronicle_scan);
          Measure.i (Detector.occurrence_count det);
          Measure.i (Detector.live_instances det);
        ]
        :: !rows)
    [ 1; 4; 16; 64 ];
  Measure.print_table ~title:"E10  event-detection cost per append"
    ~header:
      [ "rules"; "us/append"; "scans/append"; "alerts fired"; "live partials" ]
    (List.rev !rows)
