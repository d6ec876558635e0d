(* Composite-event detection over a transaction chronicle (§6 of the
   paper: active-database event recognition as an incarnation of the
   chronicle model, evaluated history-lessly).

   Two fraud rules over card transactions:
     - rapid_drain : a large deposit followed by two large withdrawals,
       all within 10 minutes, on one account;
     - testing_card: three small withdrawals within 3 minutes (a thief
       probing a stolen card).

   Run with: dune exec examples/fraud_detection.exe *)

open Relational
open Chronicle_core
open Chronicle_workload

let txn_schema =
  Schema.make
    [ ("acct", Value.TInt); ("kind", Value.TStr); ("amount", Value.TFloat) ]

let withdrawal_between lo hi =
  Predicate.(
    conj
      [ "kind" =% Value.Str "withdrawal";
        "amount" <% Value.Float (-.lo);
        "amount" >% Value.Float (-.hi) ])

let () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"txns" txn_schema);
  let det = Detector.create (Db.chronicle db "txns") in
  Db.add_detector db det;

  (* the same chronicle simultaneously maintains an ordinary summary
     view — alarms and balances ride one transaction path.  (Defined
     up front: with retention Discard there is no history to
     initialize a later view from.) *)
  let _balance =
    Db.define_view db
      (Sca.define ~name:"balance"
         ~body:(Ca.Chronicle (Db.chronicle db "txns"))
         (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "amount" "balance" ])))
  in

  Detector.add_rule det
    (Detector.rule ~name:"rapid_drain"
       ~pattern:
         (Pattern.seq
            [
              Pattern.atom "big_deposit"
                Predicate.(
                  And ("kind" =% Value.Str "deposit", "amount" >% Value.Float 800.));
              Pattern.repeat 2
                (Pattern.atom "big_withdrawal" (withdrawal_between 300. 1e9));
            ])
       ~key:[ "acct" ] ~within:10 ~reset_on_match:true ());
  Detector.add_rule det
    (Detector.rule ~name:"testing_card"
       ~pattern:(Pattern.repeat 3 (Pattern.atom "probe" (withdrawal_between 0. 5.)))
       ~key:[ "acct" ] ~within:3 ~cooldown:30 ());

  Detector.on_match det (fun o ->
      Format.printf "ALERT %a@." Detector.pp_occurrence o);

  (* scripted incidents *)
  let post minute acct kind amount =
    Db.advance_clock db minute;
    ignore
      (Db.append db "txns"
         [ Tuple.make [ Value.Int acct; Value.Str kind; Value.Float amount ] ])
  in
  Format.printf "-- scripted incidents --@.";
  (* account 7: classic rapid drain *)
  post 0 7 "deposit" 900.;
  post 2 7 "withdrawal" (-400.);
  post 4 7 "withdrawal" (-450.);
  (* account 8: the same events but spread over an hour — no alert *)
  post 10 8 "deposit" 900.;
  post 30 8 "withdrawal" (-400.);
  post 60 8 "withdrawal" (-450.);
  (* account 9: card testing *)
  post 61 9 "withdrawal" (-1.);
  post 62 9 "withdrawal" (-2.);
  post 63 9 "withdrawal" (-1.5);

  Format.printf "@.-- a day of background traffic --@.";
  let rng = Rng.create 12 in
  let zipf = Zipf.create ~n:300 ~s:1.0 in
  let minute = ref 64 in
  for _ = 1 to 5_000 do
    incr minute;
    Db.advance_clock db !minute;
    ignore (Db.append db "txns" [ Banking.txn rng zipf ])
  done;
  Format.printf
    "%d alerts total; %d partial instances live (bounded, history-less)@."
    (Detector.occurrence_count det)
    (Detector.live_instances det);

  post (!minute + 1) 7 "deposit" 25.;
  match Db.summary db ~view:"balance" [ Value.Int 7 ] with
  | Some row ->
      Format.printf "account 7 balance now: %a@." Value.pp (Tuple.get row 1)
  | None -> ()
