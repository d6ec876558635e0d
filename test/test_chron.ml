open Relational
open Chronicle_core
open Util

let user_schema = Schema.make [ ("acct", Value.TInt); ("amt", Value.TInt) ]

let test_group_watermark () =
  let g = Group.create "g" in
  check_int "initial" Seqnum.zero (Group.watermark g);
  check_int "first sn" 1 (Group.next_sn g);
  check_int "second sn" 2 (Group.next_sn g);
  Group.claim_sn g 10;
  check_int "sparse claim" 10 (Group.watermark g);
  Alcotest.check_raises "stale"
    (Group.Stale_sequence_number { given = 5; watermark = 10 })
    (fun () -> Group.claim_sn g 5);
  Alcotest.check_raises "equal is stale too"
    (Group.Stale_sequence_number { given = 10; watermark = 10 })
    (fun () -> Group.claim_sn g 10)

let test_group_clock () =
  let g = Group.create ~clock_start:100 "g" in
  check_int "start" 100 (Group.now g);
  Group.advance_clock g 105;
  check_int "advanced" 105 (Group.now g);
  check_raises_any "no going back" (fun () -> Group.advance_clock g 99)

let test_chronicle_schema () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~name:"txns" user_schema in
  check_int "sn first" 0 (Schema.pos (Chron.schema c) Seqnum.attr);
  check_int "full arity" 3 (Schema.arity (Chron.schema c));
  check_raises_any "reserved attribute" (fun () ->
      ignore
        (Chron.create ~group:g ~name:"bad"
           (Schema.make [ (Seqnum.attr, Value.TInt) ])))

let test_append_tags () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~retention:Chron.Full ~name:"txns" user_schema in
  let sn = Chron.append c [ tup [ vi 1; vi 50 ]; tup [ vi 2; vi 70 ] ] in
  check_int "batch sn" 1 sn;
  check_int "total" 2 (Chron.total_appended c);
  check_bool "last_sn" true (Chron.last_sn c = Some 1);
  check_tuples "stored tagged"
    [ tup [ vi 1; vi 1; vi 50 ]; tup [ vi 1; vi 2; vi 70 ] ]
    (Chron.stored c);
  check_int "sn_of" 1 (Chron.sn_of (List.hd (Chron.stored c)))

let test_append_type_checked () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~name:"txns" user_schema in
  check_raises_any "wrong tuple" (fun () ->
      ignore (Chron.append c [ tup [ vs "oops" ] ]))

let test_retention_discard () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~name:"txns" user_schema in
  ignore (Chron.append c [ tup [ vi 1; vi 50 ] ]);
  check_int "nothing stored" 0 (Chron.stored_count c);
  check_int "but counted" 1 (Chron.total_appended c)

let test_retention_window () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~retention:(Chron.Window 3) ~name:"txns" user_schema in
  for i = 1 to 5 do
    ignore (Chron.append c [ tup [ vi i; vi (i * 10) ] ])
  done;
  check_int "window size" 3 (Chron.stored_count c);
  check_tuples "latest three, oldest first"
    [ tup [ vi 3; vi 3; vi 30 ]; tup [ vi 4; vi 4; vi 40 ]; tup [ vi 5; vi 5; vi 50 ] ]
    (Chron.stored c)

let test_scan_counts () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~retention:Chron.Full ~name:"txns" user_schema in
  for i = 1 to 4 do
    ignore (Chron.append c [ tup [ vi i; vi 1 ] ])
  done;
  let before = Stats.snapshot () in
  Chron.scan ignore c;
  let after = Stats.snapshot () in
  check_int "chronicle_scan counted" 4
    (Stats.diff_get before after Stats.Chronicle_scan)

let test_append_sparse () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~retention:Chron.Full ~name:"txns" user_schema in
  Chron.append_sparse c 100 [ tup [ vi 1; vi 1 ] ];
  check_int "watermark" 100 (Group.watermark g);
  check_raises_any "stale sparse" (fun () ->
      Chron.append_sparse c 50 [ tup [ vi 1; vi 1 ] ])

let test_append_multi () =
  let g = Group.create "g" in
  let c1 = Chron.create ~group:g ~retention:Chron.Full ~name:"a" user_schema in
  let c2 = Chron.create ~group:g ~retention:Chron.Full ~name:"b" user_schema in
  let sn = Chron.append_multi g [ (c1, [ tup [ vi 1; vi 1 ] ]); (c2, [ tup [ vi 2; vi 2 ] ]) ] in
  check_int "same sn both" sn (Chron.sn_of (List.hd (Chron.stored c1)));
  check_int "same sn both 2" sn (Chron.sn_of (List.hd (Chron.stored c2)));
  let other = Group.create "other" in
  let c3 = Chron.create ~group:other ~name:"c" user_schema in
  check_raises_any "cross-group batch rejected" (fun () ->
      ignore (Chron.append_multi g [ (c3, [ tup [ vi 1; vi 1 ] ]) ]))

let test_restore_conflict () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~retention:Chron.Full ~name:"t" user_schema in
  ignore (Chron.append c [ tup [ vi 1; vi 1 ] ]);
  match Chron.restore c ~total:3 ~last_sn:(Some 3) ~retained:[] with
  | () -> Alcotest.fail "restore into a non-fresh chronicle must fail"
  | exception Chron.Restore_conflict { chronicle; appended } ->
      check_string "conflicting chronicle" "t" chronicle;
      check_int "appends already recorded" 1 appended

let test_txn_marks () =
  let g = Group.create "g" in
  let c = Chron.create ~group:g ~retention:(Chron.Window 3) ~name:"t" user_schema in
  ignore (Chron.append c [ tup [ vi 1; vi 1 ]; tup [ vi 2; vi 2 ] ]);
  let before = Chron.stored c in
  let m = Chron.mark c in
  (* a big batch that laps the 3-slot ring *)
  ignore
    (Chron.record c 2 [ tup [ vi 3; vi 3 ]; tup [ vi 4; vi 4 ];
                        tup [ vi 5; vi 5 ]; tup [ vi 6; vi 6 ] ]);
  check_int "recorded over the mark" 6 (Chron.total_appended c);
  Chron.rollback c m;
  check_int "total restored" 2 (Chron.total_appended c);
  check_tuples "ring window restored (even after lapping)" before (Chron.stored c);
  check_bool "last_sn restored" true (Chron.last_sn c = Some 1);
  (* commit path: marks are cheap bookkeeping, commit keeps the batch *)
  let m2 = Chron.mark c in
  ignore (Chron.record c 2 [ tup [ vi 7; vi 7 ] ]);
  Chron.commit c;
  ignore m2;
  check_int "committed batch stays" 3 (Chron.total_appended c)

let qcheck_monotone_sns =
  let gen = QCheck.(list_of_size (Gen.int_range 1 30) (int_bound 3)) in
  qtest "appended sequence numbers are strictly increasing per batch" gen
    (fun sizes ->
      let g = Group.create "g" in
      let c = Chron.create ~group:g ~retention:Chron.Full ~name:"t" user_schema in
      List.iter
        (fun k -> ignore (Chron.append c (List.init (k + 1) (fun i -> tup [ vi i; vi i ]))))
        sizes;
      let sns = List.map Chron.sn_of (Chron.stored c) in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      non_decreasing sns
      && Group.watermark g = List.length sizes)

(* The occurrence index and a one-column index, built at a random
   point, must agree with the store after every step: appends (enough
   distinct rows to double the bucket arrays several times, so lookups
   and removals land mid-growth), removals (outside marks they compact
   the store), and marked blocks that commit or roll back. *)
type index_op =
  | Add of (int * int) list
  | Drop of int list
  | Marked of bool * (int * int) list * int list
  | Look

let qcheck_indexes_track_store =
  let open QCheck.Gen in
  let row = pair (int_bound 149) (int_bound 9) in
  let op =
    frequency
      [
        (5, map (fun rs -> Add rs) (list_size (int_range 1 40) row));
        (2, map (fun ks -> Drop ks) (list_size (int_range 1 30) (int_bound 10_000)));
        ( 2,
          map3
            (fun commit rs ks -> Marked (commit, rs, ks))
            bool
            (list_size (int_range 0 20) row)
            (list_size (int_range 0 10) (int_bound 10_000)) );
        (1, return Look);
      ]
  in
  let print_op = function
    | Add rs -> Printf.sprintf "Add %d" (List.length rs)
    | Drop ks -> Printf.sprintf "Drop %d" (List.length ks)
    | Marked (c, rs, ks) ->
        Printf.sprintf "Marked(%b, %d, %d)" c (List.length rs) (List.length ks)
    | Look -> "Look"
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map print_op ops))
      (list_size (int_range 1 80) op)
  in
  qtest ~count:60 "indexes track appends, removals and rollbacks" arb (fun ops ->
      let g = Group.create "g" in
      let c = Chron.create ~group:g ~retention:Chron.Full ~name:"t" user_schema in
      let built = ref false in
      let add rs =
        ignore (Chron.append c (List.map (fun (a, m) -> tup [ vi a; vi m ]) rs))
      in
      let drop ks =
        List.iter
          (fun k ->
            match Chron.stored c with
            | [] -> ()
            | st ->
                let tu = List.nth st (k mod List.length st) in
                Chron.remove_stored c (Chron.sn_of tu) [ Chron.untag tu ])
          ks
      in
      let check () =
        built := true;
        let st = Chron.stored c in
        let occ = Tuple.Tbl.create 64 and by_acct = Hashtbl.create 64 in
        List.iter
          (fun tu ->
            let row = Chron.untag tu and acct = Tuple.get tu 1 in
            let sns = Option.value ~default:[] (Tuple.Tbl.find_opt occ row) in
            Tuple.Tbl.replace occ row (Chron.sn_of tu :: sns);
            let tus = Option.value ~default:[] (Hashtbl.find_opt by_acct acct) in
            Hashtbl.replace by_acct acct (tu :: tus))
          st;
        Tuple.Tbl.fold
          (fun row sns ok -> ok && Chron.occurrences c row = sns)
          occ true
        && Hashtbl.fold
             (fun acct tus ok ->
               ok && Chron.matching c ~cols:[| 1 |] [ [| acct |] ] = List.rev tus)
             by_acct true
        && Chron.occurrences c (tup [ vi 1000; vi 0 ]) = []
        && Chron.matching c ~cols:[| 1 |] [ [| vi 1000 |] ] = []
      in
      List.for_all
        (fun op ->
          (match op with
          | Add rs -> add rs
          | Drop ks -> drop ks
          | Marked (commit, rs, ks) ->
              let m = Chron.mark c in
              drop ks;
              add rs;
              drop ks;
              if commit then Chron.commit c else Chron.rollback c m
          | Look -> ignore (check ()));
          (not !built) || check ())
        ops
      && check ())

let suite =
  [
    test "group watermark and sparse claims" test_group_watermark;
    test "group clock" test_group_clock;
    test "chronicle schema gains sn" test_chronicle_schema;
    test "append tags tuples with the batch sn" test_append_tags;
    test "append type-checks tuples" test_append_type_checked;
    test "retention: discard" test_retention_discard;
    test "retention: ring window" test_retention_window;
    test "scans bump the chronicle_scan counter" test_scan_counts;
    test "sparse sequence numbers" test_append_sparse;
    test "simultaneous multi-chronicle batch" test_append_multi;
    test "restore conflicts are typed errors" test_restore_conflict;
    test "transactional marks roll the store back" test_txn_marks;
    qcheck_monotone_sns;
    qcheck_indexes_track_store;
  ]
