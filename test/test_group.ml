(* Group commit: the staging queue (Chronicle_durability.Group), its
   watermark-ordered acks, its transparency guarantees, and the
   directed counter story — one journal record per flushed group.

   The central property is differential: any interleaving of staged
   appends, explicit flushes and threshold changes is equivalent to
   applying the same appends sequentially — same final state (canonical
   snapshot document), same sequence numbers, acks resolving in staging
   order. *)

open Relational
open Chronicle_core
open Chronicle_durability
open Util

(* durability's [Group] is the commit-group stager; the chronicle
   group (watermark scope) of Chronicle_core keeps the short name *)
module Staging = Chronicle_durability.Group
module Group = Chronicle_core.Group

let schema = Schema.make [ ("acct", Value.TInt); ("miles", Value.TInt) ]
let row (acct, miles) = tup [ vi acct; vi miles ]

let mk_db ?jobs () =
  let db = Db.create ?jobs () in
  ignore (Db.add_chronicle db ~name:"m" schema);
  ignore (Db.add_chronicle db ~name:"b" schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:
            (Ca.Union
               ( Ca.Chronicle (Db.chronicle db "m"),
                 Ca.Chronicle (Db.chronicle db "b") ))
          (Sca.Group_agg
             ([ "acct" ], [ Aggregate.sum "miles" "total"; Aggregate.count_star "n" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"big"
          ~body:
            (Ca.Select
               (Predicate.("miles" >% vi 50), Ca.Chronicle (Db.chronicle db "m")))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.max_ "miles" "hi" ]))));
  db

let sn_of = function
  | Ok sn -> sn
  | Error e -> Alcotest.failf "ticket rejected: %s" (Printexc.to_string e)

(* ---- directed behaviour ---- *)

let test_threshold_flush () =
  let db = mk_db () in
  let st = Staging.create ~batch:3 db in
  check_int "threshold" 3 (Staging.batch st);
  let t1 = Staging.stage st [ ("m", [ row (1, 10) ]) ] in
  let t2 = Staging.stage st [ ("b", [ row (2, 20) ]) ] in
  check_int "two staged" 2 (Staging.pending st);
  check_int "nothing committed yet" 0
    (Group.watermark (Db.default_group db));
  let t3 = Staging.stage st [ ("m", [ row (1, 5); row (3, 60) ]) ] in
  (* the third stage reached the threshold: the whole queue committed *)
  check_int "queue drained" 0 (Staging.pending st);
  check_int "sn 1 in staging order" 1 (sn_of (Staging.await st t1));
  check_int "sn 2 in staging order" 2 (sn_of (Staging.await st t2));
  check_int "sn 3 in staging order" 3 (sn_of (Staging.await st t3));
  check_tuples "views folded the combined delta"
    [ tup [ vi 1; vi 15; vi 2 ]; tup [ vi 2; vi 20; vi 1 ]; tup [ vi 3; vi 60; vi 1 ] ]
    (Db.view_contents db "balance");
  check_tuples "guarded view too"
    [ tup [ vi 3; vi 60 ] ]
    (Db.view_contents db "big")

let test_await_flushes () =
  let db = mk_db () in
  let st = Staging.create ~batch:100 db in
  let t1 = Staging.stage st [ ("m", [ row (1, 1) ]) ] in
  let t2 = Staging.stage st [ ("m", [ row (2, 2) ]) ] in
  (* awaiting the *first* ticket flushes the idle queue: both resolve *)
  check_int "await triggers the flush" 1 (sn_of (Staging.await st t1));
  check_int "queue empty" 0 (Staging.pending st);
  check_int "later ticket resolved too" 2 (sn_of (Staging.await st t2))

let test_set_batch_flushes_at_threshold () =
  let db = mk_db () in
  let st = Staging.create ~batch:10 db in
  ignore (Staging.stage st [ ("m", [ row (1, 1) ]) ]);
  ignore (Staging.stage st [ ("m", [ row (2, 2) ]) ]);
  Staging.set_batch st 2;
  (* lowering the threshold to the queue depth flushes immediately *)
  check_int "flushed by set_batch" 0 (Staging.pending st);
  check_int "both committed" 2
    (Group.watermark (Db.default_group db));
  check_raises_any "threshold must be positive" (fun () -> Staging.set_batch st 0)

let test_eager_validation () =
  let db = mk_db () in
  let st = Staging.create ~batch:4 db in
  ignore (Staging.stage st [ ("m", [ row (1, 1) ]) ]);
  (* a stage that could never commit fails synchronously and is never
     enqueued: the queue is exactly as before *)
  check_raises_any "unknown chronicle" (fun () ->
      Staging.stage st [ ("nope", [ row (1, 1) ]) ]);
  check_raises_any "schema mismatch" (fun () ->
      Staging.stage st [ ("m", [ tup [ vi 1 ] ]) ]);
  check_raises_any "empty batch" (fun () -> Staging.stage st []);
  check_int "queue unchanged" 1 (Staging.pending st);
  Staging.flush st;
  check_int "the good append committed" 1
    (Group.watermark (Db.default_group db))

let test_group_abort_all_or_nothing () =
  let db = mk_db () in
  let st = Staging.create ~batch:3 db in
  let t1 = Staging.stage st [ ("m", [ row (1, 10) ]) ] in
  let t2 = Staging.stage st [ ("m", [ row (2, 20) ]) ] in
  (* poison the fold of the group's combined delta: the group aborts as
     a whole, every ticket rejects, and the database rolls back *)
  let boom = Failure "fold poisoned" in
  Db.set_fold_probe db (Some (fun ~view:_ ~sn:_ -> raise boom));
  (match Staging.stage st [ ("m", [ row (3, 30) ]) ] with
  | _ -> Alcotest.fail "flush must re-raise the group's failure"
  | exception Failure _ -> ());
  Db.set_fold_probe db None;
  check_int "rolled back" 0 (Group.watermark (Db.default_group db));
  check_tuples "views untouched" [] (Db.view_contents db "balance");
  check_int "queue drained (all tickets resolved)" 0 (Staging.pending st);
  let rejected t =
    match Staging.await st t with Error _ -> true | Ok _ -> false
  in
  check_bool "first ticket rejected" true (rejected t1);
  check_bool "second ticket rejected" true (rejected t2);
  (* the stager keeps working after an abort *)
  let t4 = Staging.stage st [ ("m", [ row (4, 40) ]) ] in
  Staging.flush st;
  check_int "fresh append commits at sn 1" 1 (sn_of (Staging.await st t4))

let test_batch_hooks_fall_back_to_per_append () =
  let db = mk_db () in
  let view =
    Windowed_view.derive ~buckets:2
      (Sca.define ~name:"recent" ~body:(Ca.Chronicle (Db.chronicle db "m"))
         (Sca.Group_agg ([], [ Aggregate.count_star "n" ])))
  in
  Db.define_temporal db (Db.Windowed_def { name = "recent"; view });
  check_bool "temporal reader visible" true (Db.has_temporal_readers db);
  let st = Staging.create ~batch:3 db in
  Stats.reset ();
  let t1 = Staging.stage st [ ("m", [ row (1, 1) ]) ] in
  ignore (Staging.stage st [ ("m", [ row (2, 2) ]) ]);
  ignore (Staging.stage st [ ("m", [ row (3, 3) ]) ]);
  check_int "flushed at threshold" 0 (Staging.pending st);
  check_int "acks still in order" 1 (sn_of (Staging.await st t1));
  (* per-append commits: the window folded every batch, and no group
     record was ever written *)
  check_tuples "window per append" [ tup [ vi 3 ] ] (Windowed_view.to_list view);
  check_int "no group commit" 0 (Stats.get Stats.Group_commit)

(* ---- the counter story: one journal record per flushed group ---- *)

let test_counters_one_record_per_group () =
  let db = mk_db () in
  let storage = Storage.mem () in
  let d = Durable.attach ~storage db in
  let st = Staging.create ~batch:4 db in
  Stats.reset ();
  for i = 1 to 4 do
    ignore (Staging.stage st [ ("m", [ row (i, i * 10) ]) ])
  done;
  check_int "queue drained" 0 (Staging.pending st);
  check_int "ONE journal record for the whole group" 1
    (Stats.get Stats.Journal_append);
  check_int "one group commit" 1 (Stats.get Stats.Group_commit);
  check_int "group size high-water" 4 (Stats.get Stats.Group_size_max);
  check_int "four staged appends" 4 (Stats.get Stats.Staged_appends);
  (* a second, smaller group: size max is a high-water mark *)
  ignore (Staging.stage st [ ("m", [ row (9, 9) ]) ]);
  ignore (Staging.stage st [ ("b", [ row (9, 9) ]) ]);
  Staging.flush st;
  check_int "second record" 2 (Stats.get Stats.Journal_append);
  check_int "second group" 2 (Stats.get Stats.Group_commit);
  check_int "high-water stays" 4 (Stats.get Stats.Group_size_max);
  (* threshold 1 is the plain path: no group framing at all *)
  Staging.set_batch st 1;
  ignore (Staging.stage st [ ("m", [ row (8, 8) ]) ]);
  check_int "plain append record" 3 (Stats.get Stats.Journal_append);
  check_int "not a group" 2 (Stats.get Stats.Group_commit);
  Durable.detach d

let test_batched_recovery_equals_sequential () =
  (* the journal written under batching recovers to the same state a
     sequential run reaches *)
  let sequential = mk_db () in
  List.iter
    (fun (c, r) -> ignore (Db.append sequential c [ row r ]))
    [ ("m", (1, 10)); ("m", (2, 60)); ("b", (1, 5)); ("m", (3, 70)); ("b", (2, 2)) ];
  let reference = Snapshot.save sequential in
  let db = mk_db () in
  let storage = Storage.mem () in
  let _d = Durable.attach ~storage db in
  let st = Staging.create ~batch:3 db in
  List.iter
    (fun (c, r) -> ignore (Staging.stage st [ (c, [ row r ]) ]))
    [ ("m", (1, 10)); ("m", (2, 60)); ("b", (1, 5)); ("m", (3, 70)); ("b", (2, 2)) ];
  Staging.flush st;
  check_bool "live state matches sequential" true (Snapshot.save db = reference);
  let d2, report = Durable.recover ~storage () in
  check_bool "recovered state matches sequential" true
    (Snapshot.save (Durable.db d2) = reference);
  (* 2 group records (3 + 2 appends), each counted once *)
  check_int "group records count once" 2 report.Durable.replayed

(* ---- the differential property ---- *)

type cmd =
  | Stage of (string * (int * int) list) list
  | Flush
  | Set_batch of int

let show_cmd = function
  | Stage batch ->
      "Stage["
      ^ String.concat ";"
          (List.map
             (fun (c, rows) -> Printf.sprintf "%s:%d" c (List.length rows))
             batch)
      ^ "]"
  | Flush -> "Flush"
  | Set_batch n -> Printf.sprintf "SetBatch%d" n

let cmd_gen =
  QCheck.Gen.(
    let chron = oneofl [ "m"; "b" ] in
    let rows = list_size (int_range 0 3) (pair (int_range 1 5) (int_range 0 120)) in
    let batch = list_size (int_range 1 2) (pair chron rows) in
    frequency
      [
        (6, map (fun b -> Stage b) batch);
        (1, return Flush);
        (1, map (fun n -> Set_batch (n + 1)) (int_bound 5));
      ])

let to_batch b = List.map (fun (c, rows) -> (c, List.map row rows)) b

let run_staged ~jobs ~batch cmds =
  let db = mk_db ~jobs () in
  let st = Staging.create ~batch db in
  let tickets =
    List.filter_map
      (function
        | Stage b -> Some (Staging.stage st (to_batch b))
        | Flush ->
            Staging.flush st;
            None
        | Set_batch n ->
            Staging.set_batch st n;
            None)
      cmds
  in
  Staging.flush st;
  let acks =
    List.map (fun t -> sn_of (Staging.await st t)) tickets
  in
  (Snapshot.save db, acks)

let run_sequential cmds =
  let db = mk_db () in
  let sns =
    List.filter_map
      (function
        | Stage b -> Some (Db.append_multi db (to_batch b))
        | Flush | Set_batch _ -> None)
      cmds
  in
  (Snapshot.save db, sns)

let qcheck_staged_equals_sequential =
  let arb =
    QCheck.make
      ~print:(fun (cmds, batch, jobs) ->
        Printf.sprintf "batch=%d jobs=%d %s" batch jobs
          (String.concat " " (List.map show_cmd cmds)))
      QCheck.Gen.(
        triple
          (list_size (int_range 0 20) cmd_gen)
          (int_range 1 6) (oneofl [ 1; 2 ]))
  in
  qtest ~count:300 "staged ≡ sequential (state, sns, ack order)" arb
    (fun (cmds, batch, jobs) ->
      let staged_state, acks = run_staged ~jobs ~batch cmds in
      let seq_state, sns = run_sequential cmds in
      if staged_state <> seq_state then
        QCheck.Test.fail_report "staged and sequential states differ";
      if acks <> sns then
        QCheck.Test.fail_reportf
          "ack order diverged: staged [%s] vs sequential [%s]"
          (String.concat ";" (List.map string_of_int acks))
          (String.concat ";" (List.map string_of_int sns));
      true)

let suite =
  [
    test "threshold reached flushes the queue" test_threshold_flush;
    test "await flushes an idle queue" test_await_flushes;
    test "set_batch flushes at the new threshold" test_set_batch_flushes_at_threshold;
    test "stage validates eagerly" test_eager_validation;
    test "group abort is all-or-nothing" test_group_abort_all_or_nothing;
    test "batch hooks force per-append commits" test_batch_hooks_fall_back_to_per_append;
    test "one journal record per flushed group" test_counters_one_record_per_group;
    test "batched journal recovers to the sequential state"
      test_batched_recovery_equals_sequential;
    qcheck_staged_equals_sequential;
  ]
