open Relational
open Chronicle_core
open Util

let txn_schema =
  Schema.make
    [ ("acct", Value.TInt); ("kind", Value.TStr); ("amount", Value.TFloat) ]

let setup () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"txns" txn_schema);
  let chron = Db.chronicle db "txns" in
  let det = Detector.create chron in
  Db.add_detector db det;
  (db, det)

let ev acct kind amount = tup [ vi acct; vs kind; vf amount ]

let withdrawal_over x =
  Predicate.(And ("kind" =% vs "withdrawal", "amount" <% vf (-.x)))

let deposit_over x = Predicate.(And ("kind" =% vs "deposit", "amount" >% vf x))

let test_atom () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"big_withdrawal"
       ~pattern:(Pattern.atom "w" (withdrawal_over 400.))
       ~key:[ "acct" ] ());
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-100.) ]);
  check_int "no fire" 0 (Detector.occurrence_count det);
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-500.) ]);
  check_int "fired" 1 (Detector.occurrence_count det);
  match Detector.occurrences det with
  | [ o ] ->
      check_string "rule" "big_withdrawal" o.Detector.rule;
      check_bool "key" true (Value.equal_list o.Detector.key_values [ vi 1 ])
  | _ -> Alcotest.fail "one occurrence expected"

let test_sequence_and_correlation () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"deposit_then_drain"
       ~pattern:(Pattern.seq
          [ Pattern.atom "d" (deposit_over 900.);
            Pattern.atom "w" (withdrawal_over 900.) ])
       ~key:[ "acct" ] ());
  ignore (Db.append db "txns" [ ev 1 "deposit" 1000. ]);
  (* a different account's withdrawal must not complete account 1's
     pattern *)
  ignore (Db.append db "txns" [ ev 2 "withdrawal" (-1000.) ]);
  check_int "not cross-correlated" 0 (Detector.occurrence_count det);
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-950.) ]);
  check_int "fired for account 1" 1 (Detector.occurrence_count det)

let test_sequence_order_matters () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"d_then_w"
       ~pattern:(Pattern.seq
          [ Pattern.atom "d" (deposit_over 0.); Pattern.atom "w" (withdrawal_over 0.) ])
       ~key:[ "acct" ] ());
  (* withdrawal first: the sequence must not fire *)
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  ignore (Db.append db "txns" [ ev 1 "deposit" 10. ]);
  check_int "wrong order" 0 (Detector.occurrence_count det);
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  check_int "right order fires" 1 (Detector.occurrence_count det)

let test_and_any_order () =
  let mk () =
    let db, det = setup () in
    Detector.add_rule det
      (Detector.rule ~name:"both"
       ~pattern:(Pattern.And
            (Pattern.atom "d" (deposit_over 0.), Pattern.atom "w" (withdrawal_over 0.)))
       ~key:[ "acct" ] ());
    (db, det)
  in
  let db, det = mk () in
  ignore (Db.append db "txns" [ ev 1 "deposit" 10. ]);
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  check_int "d then w" 1 (Detector.occurrence_count det);
  let db, det = mk () in
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  ignore (Db.append db "txns" [ ev 1 "deposit" 10. ]);
  check_int "w then d" 1 (Detector.occurrence_count det)

let test_or () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"either"
       ~pattern:(Pattern.Or
          (Pattern.atom "big_d" (deposit_over 5000.),
           Pattern.atom "big_w" (withdrawal_over 5000.)))
       ~key:[ "acct" ] ());
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-9000.) ]);
  check_int "or fires" 1 (Detector.occurrence_count det)

let test_repeat_with_skip () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"three_withdrawals"
       ~pattern:(Pattern.repeat 3 (Pattern.atom "w" (withdrawal_over 400.)))
       ~key:[ "acct" ] ());
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-500.) ]);
  ignore (Db.append db "txns" [ ev 1 "deposit" 5. ]);
  (* irrelevant event in between: skip semantics *)
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-600.) ]);
  check_int "two so far" 0 (Detector.occurrence_count det);
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-700.) ]);
  check_int "third completes" 1 (Detector.occurrence_count det)

let test_within_deadline () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"rapid_pair"
       ~pattern:(Pattern.repeat 2 (Pattern.atom "w" (withdrawal_over 100.)))
       ~key:[ "acct" ] ~within:5 ());
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-200.) ]);
  Db.advance_clock db 10;
  (* too late: the first instance expired *)
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-200.) ]);
  check_int "expired instance does not fire" 0 (Detector.occurrence_count det);
  Db.advance_clock db 12;
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-200.) ]);
  check_int "rapid pair fires" 1 (Detector.occurrence_count det)

let test_history_less () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"pair"
       ~pattern:(Pattern.repeat 2 (Pattern.atom "w" (withdrawal_over 0.)))
       ~key:[ "acct" ] ~within:100 ());
  for i = 1 to 50 do
    ignore (Db.append db "txns" [ ev (i mod 7) "withdrawal" (-10.) ])
  done;
  let before = Stats.snapshot () in
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  let after = Stats.snapshot () in
  check_int "no chronicle re-read (history-less evaluation)" 0
    (Stats.diff_get before after Stats.Chronicle_scan)

let test_instance_cap () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"txns" txn_schema);
  let det = Detector.create ~max_instances_per_key:4 (Db.chronicle db "txns") in
  Db.add_detector db det;
  Detector.add_rule det
    (Detector.rule ~name:"pair"
       ~pattern:(Pattern.seq
          [ Pattern.atom "a" (withdrawal_over 0.); Pattern.atom "b" (deposit_over 1e9) ])
       ~key:[ "acct" ] ());
  (* every withdrawal opens a partial instance that can never complete;
     distinct chronons keep the instances distinct *)
  for day = 1 to 100 do
    Db.advance_clock db day;
    ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ])
  done;
  check_bool "bounded state" true (Detector.live_instances det <= 4);
  check_bool "drops counted" true (Detector.dropped_instances det > 0)

let test_reset_on_match () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"pair"
       ~pattern:(Pattern.repeat 2 (Pattern.atom "w" (withdrawal_over 0.)))
       ~key:[ "acct" ] ~reset_on_match:true ());
  (* four withdrawals: without reset every adjacent/overlapping pair
     fires (3+ occurrences); with reset only disjoint pairs do *)
  for day = 1 to 4 do
    Db.advance_clock db day;
    ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ])
  done;
  check_int "two disjoint pairs" 2 (Detector.occurrence_count det);
  check_int "state cleared after each match" 0 (Detector.live_instances det)

let test_overlapping_without_reset () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"pair"
       ~pattern:(Pattern.repeat 2 (Pattern.atom "w" (withdrawal_over 0.)))
       ~key:[ "acct" ] ());
  for day = 1 to 4 do
    Db.advance_clock db day;
    ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ])
  done;
  (* pairs (1,2) (1..3 via 2,3) (…): every later event closes a pair with
     every running single-withdrawal instance *)
  check_bool "overlapping matches multiply" true (Detector.occurrence_count det > 2)

let test_cooldown () =
  let db, det = setup () in
  Detector.add_rule det
    (Detector.rule ~name:"w"
       ~pattern:(Pattern.atom "w" (withdrawal_over 0.))
       ~key:[ "acct" ] ~cooldown:10 ());
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  Db.advance_clock db 3;
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  check_int "second fire suppressed" 1 (Detector.occurrence_count det);
  check_int "suppression counted" 1 (Detector.suppressed det);
  (* the cooldown is per key: another account fires freely *)
  ignore (Db.append db "txns" [ ev 2 "withdrawal" (-10.) ]);
  check_int "other key fires" 2 (Detector.occurrence_count det);
  Db.advance_clock db 11;
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  check_int "after cooldown fires again" 3 (Detector.occurrence_count det)

let test_listener_and_duplicate_rule () =
  let db, det = setup () in
  let heard = ref [] in
  Detector.on_match det (fun o -> heard := o.Detector.rule :: !heard);
  let rule =
    (Detector.rule ~name:"w"
       ~pattern:(Pattern.atom "w" (withdrawal_over 0.))
       ~key:[ "acct" ] ())
  in
  Detector.add_rule det rule;
  check_raises_any "duplicate rule" (fun () -> Detector.add_rule det rule);
  check_raises_any "bad key attr" (fun () ->
      Detector.add_rule det { rule with Detector.rule_name = "w2"; key = [ "nope" ] });
  ignore (Db.append db "txns" [ ev 1 "withdrawal" (-10.) ]);
  check_bool "listener heard" true (!heard = [ "w" ])

(* Brute-force reference for sequence patterns.  The detector
   deduplicates partial instances by (start chronon, residual), so for a
   pure atom sequence every embedding with the same first and last event
   fires exactly once: the expected occurrence count is the number of
   DISTINCT (first chronon, last chronon) pairs over the embeddings
   i₁<…<iₘ with chronon(iₘ) ≤ chronon(i₁) + within. *)
let count_start_end_pairs atoms events ~within =
  (* atoms: kind list; events: (chronon * kind) list, in stream order *)
  let pairs = Hashtbl.create 16 in
  let rec go atoms events started =
    match atoms with
    | [] -> ()
    | q :: rest ->
        let rec over = function
          | [] -> ()
          | (chronon, kind) :: tail ->
              let in_deadline =
                match started, within with
                | Some s, Some w -> chronon <= s + w
                | (Some _ | None), _ -> true
              in
              if kind = q && in_deadline then begin
                let start = Option.value ~default:chronon started in
                if rest = [] then Hashtbl.replace pairs (start, chronon) ()
                else go rest tail (Some start)
              end;
              over tail
        in
        over events
  in
  go atoms events None;
  Hashtbl.length pairs

let qcheck_detector_equals_embedding_count =
  let gen =
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 3) (int_bound 2)) (* atom kinds *)
        (pair
           (list_of_size (Gen.int_range 0 10)
              (pair (int_bound 2) (int_bound 1))) (* events: kind, key *)
           (option (int_bound 6)))) (* within *)
  in
  qtest ~count:300 "derivative detector = brute-force embedding count" gen
    (fun (atom_kinds, (events, within)) ->
      let kind_name k = Printf.sprintf "k%d" k in
      let db = Db.create () in
      ignore
        (Db.add_chronicle db ~name:"ev"
           (Schema.make [ ("key", Value.TInt); ("kind", Value.TStr) ]));
      let det = Detector.create ~max_instances_per_key:10_000 (Db.chronicle db "ev") in
      Db.add_detector db det;
      Detector.add_rule det
        (Detector.rule ~name:"r"
           ~pattern:
             (Pattern.seq
                (List.map
                   (fun k ->
                     Pattern.atom (kind_name k)
                       Predicate.("kind" =% Value.Str (kind_name k)))
                   atom_kinds))
           ~key:[ "key" ] ?within ());
      (* one event per chronon *)
      List.iteri
        (fun chronon (kind, key) ->
          Db.advance_clock db chronon;
          ignore
            (Db.append db "ev"
               [ Tuple.make [ Value.Int key; Value.Str (kind_name kind) ] ]))
        events;
      let expected =
        List.fold_left ( + ) 0
          (List.map
             (fun key ->
               let key_events =
                 List.mapi (fun chronon (kind, k) -> (chronon, kind, k)) events
                 |> List.filter_map (fun (chronon, kind, k) ->
                        if k = key then Some (chronon, kind) else None)
               in
               count_start_end_pairs atom_kinds key_events ~within)
             [ 0; 1 ])
      in
      Detector.occurrence_count det = expected)

let suite =
  [
    test "atomic patterns" test_atom;
    test "sequences correlate by key" test_sequence_and_correlation;
    test "sequence order matters" test_sequence_order_matters;
    test "AND in any order" test_and_any_order;
    test "OR" test_or;
    test "repeat with skip semantics" test_repeat_with_skip;
    test "within deadlines expire instances" test_within_deadline;
    test "detection is history-less (§6)" test_history_less;
    test "reset_on_match fires disjoint pairs" test_reset_on_match;
    test "overlapping matches without reset" test_overlapping_without_reset;
    test "cooldown suppresses per key" test_cooldown;
    qcheck_detector_equals_embedding_count;
    test "instance cap bounds state" test_instance_cap;
    test "listeners and rule validation" test_listener_and_duplicate_rule;
  ]
