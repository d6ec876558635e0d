(* The durability layer: CRC-32, journal framing, torn/corrupt tails,
   atomic checkpoints, crash recovery and the transactional append
   rollback path. *)

open Relational
open Chronicle_core
open Chronicle_durability
open Util

(* durability's [Group] is the commit-group stager; the chronicle
   group of Chronicle_core is what these tests mean by [Group] *)
module Group = Chronicle_core.Group

(* ---- crc32 ---- *)

let test_crc32 () =
  (* the standard IEEE 802.3 check value *)
  check_int "check vector" 0xCBF43926 (Crc32.string "123456789");
  check_int "empty" 0 (Crc32.string "");
  let a = "chronicle " and b = "journal" in
  check_int "incremental"
    (Crc32.string (a ^ b))
    (Crc32.update (Crc32.string a) b ~pos:0 ~len:(String.length b));
  check_int "substring"
    (Crc32.string "ron")
    (Crc32.sub "chronicle" ~pos:2 ~len:3)

(* ---- journal framing ---- *)

let rec_s s = "r:" ^ s

(* The payloads of a stored segment, and how its scan ended. *)
let scan_stored (st : Storage.t) name =
  match st.Storage.read name with
  | None -> ([], Journal.Complete)
  | Some bytes ->
      let records, ended = Journal.scan bytes in
      (List.map fst records, ended)

let test_journal_roundtrip () =
  let st = Storage.mem () in
  let j = Journal.open_ st "journal" in
  check_int "fresh journal is empty" 0 (Journal.records j);
  Journal.append j (rec_s "one");
  Journal.append j (rec_s "two");
  Journal.append j (rec_s "three");
  check_int "three records" 3 (Journal.records j);
  let records, tail = scan_stored st "journal" in
  check_bool "clean tail" true (tail = Journal.Complete);
  check_bool "payloads survive" true
    (records = [ rec_s "one"; rec_s "two"; rec_s "three" ]);
  Journal.truncate_last j;
  check_int "truncate_last drops one" 2 (Journal.records j);
  check_int "readers agree" 2 (List.length (fst (scan_stored st "journal")));
  Journal.seal j;
  check_int "sealing empties the active segment" 0 (Journal.records j);
  check_bool "the sealed segment keeps the records" true
    (List.length (fst (scan_stored st "journal.0")) = 2);
  check_bool "still parseable" true (scan_stored st "journal" = ([], Journal.Complete));
  (* reopening an existing journal rebuilds record boundaries *)
  Journal.append j (rec_s "four");
  let j2 = Journal.open_ st "journal" in
  check_int "reopen sees the record" 1 (Journal.records j2);
  Journal.truncate_last j2;
  check_int "reopened boundaries are exact" 0 (Journal.records j2)

let test_journal_torn_tail () =
  let st = Storage.mem () in
  let j = Journal.open_ st "journal" in
  Journal.append j (rec_s "one");
  Journal.append j (rec_s "two");
  let full = Option.get (st.Storage.size "journal") in
  (* tear the final record: cut three bytes off its payload *)
  st.Storage.truncate "journal" (full - 3);
  let records, tail = scan_stored st "journal" in
  check_bool "torn tail reported" true
    (match tail with Journal.Torn _ -> true | _ -> false);
  check_int "complete prefix survives" 1 (List.length records);
  (* a writer cuts the tear off and continues *)
  let j2 = Journal.open_ st "journal" in
  check_int "tear removed on open" 1 (Journal.records j2);
  Journal.append j2 (rec_s "three");
  let records, tail = scan_stored st "journal" in
  check_bool "clean again" true (tail = Journal.Complete);
  check_int "two records" 2 (List.length records)

let test_journal_corruption_detected () =
  let st = Storage.mem () in
  let j = Journal.open_ st "journal" in
  Journal.append j (rec_s "one");
  Journal.append j (rec_s "two");
  (* flip one bit inside the first record's payload (magic is 10 bytes,
     frame header 8): corruption, not a torn tail *)
  Fault.flip_bit st ~name:"journal" ~byte:(10 + 8 + 2) ~bit:0;
  (match scan_stored st "journal" with
  | [], Journal.Damaged { index = 0; _ } -> ()
  | _ -> Alcotest.fail "corruption must not read back");
  (* foreign bytes are damage too *)
  st.Storage.write "journal" "NOTAJOURNAL....";
  check_bool "bad magic" true
    (match scan_stored st "journal" with
    | [], Journal.Damaged { index = 0; _ } -> true
    | _ -> false)

let test_sync_policy_parse () =
  check_bool "never" true
    (Journal.sync_policy_of_string "never" = Ok Journal.Sync_never);
  check_bool "always" true
    (Journal.sync_policy_of_string "always" = Ok Journal.Sync_always);
  check_bool "every" true
    (Journal.sync_policy_of_string "every:16" = Ok (Journal.Sync_every 16));
  check_bool "garbage" true
    (match Journal.sync_policy_of_string "sometimes" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "zero interval" true
    (match Journal.sync_policy_of_string "every:0" with
    | Error _ -> true
    | Ok _ -> false)

(* ---- a standard durable database ---- *)

let mk_db () =
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~retention:(Chron.Window 4) ~name:"mileage"
       Fixtures.mileage_schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "balance"; Aggregate.count_star "n" ] ))));
  db

let post acct miles = Fixtures.mile acct miles 1.

let same_state msg expected actual =
  check_string msg (Snapshot.save expected) (Snapshot.save actual)

(* ---- journaling and checkpointing ---- *)

let test_attach_journals_appends () =
  let st = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ~storage:st db in
  check_int "attach checkpoints, journal empty" 0 (Durable.journal_records d);
  let before = Stats.snapshot () in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  ignore (Db.append db "mileage" [ post 2 50; post 1 25 ]);
  let after = Stats.snapshot () in
  check_int "one journal record per batch" 2 (Durable.journal_records d);
  check_int "journal_append counted" 2
    (Stats.diff_get before after Stats.Journal_append);
  check_bool "journal_bytes counted" true
    (Stats.diff_get before after Stats.Journal_bytes
    >= Durable.journal_bytes d - 10 (* magic written before the snapshot *));
  check_bool "no replay during normal operation" true
    (Stats.diff_get before after Stats.Journal_replay = 0)

let test_checkpoint_resets_journal () =
  let st = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  ignore (Db.append db "mileage" [ post 2 50 ]);
  let before = Stats.snapshot () in
  Durable.checkpoint d;
  let after = Stats.snapshot () in
  check_int "checkpoint counted" 1 (Stats.diff_get before after Stats.Checkpoint);
  check_int "journal reset" 0 (Durable.journal_records d);
  check_bool "the next generation exists" true (st.Storage.exists "checkpoint.1");
  check_bool "the records were sealed, then pruned with generation 0" true
    (st.Storage.list () = [ "checkpoint.1"; "journal" ]);
  check_bool "temp file renamed away" true
    (not (st.Storage.exists "checkpoint.tmp"))

let test_recover_checkpoint_plus_journal () =
  let st = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  Durable.checkpoint d;
  ignore (Db.append db "mileage" [ post 2 50 ]);
  ignore (Db.append db "mileage" [ post 1 7 ]);
  let before = Stats.snapshot () in
  let d', report = Durable.recover ~storage:st () in
  let after = Stats.snapshot () in
  same_state "checkpoint + journal suffix = the database" db (Durable.db d');
  check_bool "loaded the checkpoint" true (report.Durable.generation = Some 1);
  check_int "replayed the suffix" 2 report.Durable.replayed;
  check_int "replay counted" 2
    (Stats.diff_get before after Stats.Journal_replay);
  check_bool "no torn tail" true (not report.Durable.dropped_torn);
  (* the recovered instance keeps journaling *)
  ignore (Db.append (Durable.db d') "mileage" [ post 3 1 ]);
  ignore (Db.append db "mileage" [ post 3 1 ]);
  same_state "recovered instance stays live" db (Durable.db d')

let test_recover_without_checkpoint_dir () =
  (* nothing in storage: recovery produces a fresh empty database *)
  let st = Storage.mem () in
  check_bool "no state" true (not (Durable.has_state st));
  let d, report = Durable.recover ~storage:st () in
  check_bool "fresh" true (report.Durable.generation = None);
  check_int "nothing replayed" 0 report.Durable.replayed;
  check_bool "catalog is empty" true (Db.chronicle_names (Durable.db d) = [])

let test_recovery_replays_catalog () =
  (* DDL after attach lives only in the journal until the next
     checkpoint; recovery must replay it *)
  let st = Storage.mem () in
  let db = Db.create () in
  let d = Durable.attach ~storage:st db in
  ignore
    (Db.add_chronicle db ~retention:(Chron.Window 4) ~name:"mileage"
       Fixtures.mileage_schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "balance" ]))));
  ignore (Db.add_group db ~clock_start:7 "side");
  ignore
    (Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
       ~key:[ "cust" ] ());
  ignore (Db.append db "mileage" [ post 1 10 ]);
  Db.advance_clock db 42;
  ignore d;
  let d', report = Durable.recover ~storage:st () in
  let db' = Durable.db d' in
  same_state "catalog replayed" db db';
  check_int "four catalog records + append + clock replayed" 6
    report.Durable.replayed;
  check_int "clock replayed" 42 (Group.now (Db.default_group db'));
  check_int "side group clock" 7 (Group.now (Db.group db' "side"));
  (* drop-view is journaled too *)
  Db.drop_view db "balance";
  let d'', _ = Durable.recover ~storage:st () in
  check_bool "dropped view stays dropped" true
    (Registry.find (Db.registry (Durable.db d'')) "balance" = None)

(* ---- crash simulation and rollback ---- *)

let test_crash_after_journal_write () =
  let st = Storage.mem () in
  let db = mk_db () in
  let fault = Fault.create () in
  let d = Durable.attach ~fault ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  let wm = Group.watermark (Db.default_group db) in
  let view_before = View.to_list (Db.view db "balance") in
  Fault.arm fault "post-journal-write";
  (match Db.append db "mileage" [ post 2 50 ] with
  | _ -> Alcotest.fail "armed crash point must fire"
  | exception Fault.Crash "post-journal-write" -> ()
  | exception e -> raise e);
  (* nothing mutated in memory: the crash hit before the marks *)
  check_int "watermark unchanged" wm (Group.watermark (Db.default_group db));
  check_tuples "view unchanged" view_before (View.to_list (Db.view db "balance"));
  check_int "write-ahead record survives the crash" 2
    (Durable.journal_records d);
  (* recovery applies the journaled batch: it was durably promised *)
  let d', report = Durable.recover ~storage:st () in
  check_int "both batches replayed" 2 report.Durable.replayed;
  check_bool "batch applied after recovery" true
    (Db.summary (Durable.db d') ~view:"balance" [ vi 2 ] <> None)

let test_crash_mid_view_fold () =
  let st = Storage.mem () in
  let db = mk_db () in
  let fault = Fault.create () in
  let d = Durable.attach ~fault ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  let state_before = Snapshot.save db in
  let rollbacks = Stats.get Stats.Rollback in
  Fault.arm fault "view-fold";
  (match Db.append db "mileage" [ post 2 50 ] with
  | _ -> Alcotest.fail "armed crash point must fire"
  | exception Fault.Crash "view-fold" -> ());
  (* the in-memory instance rolled back atomically... *)
  check_string "no partially-maintained state observable" state_before
    (Snapshot.save db);
  check_int "rollback counted" (rollbacks + 1) (Stats.get Stats.Rollback);
  (* ...but the dead process could not erase its write-ahead record, so
     recovery finishes the batch *)
  check_int "record survives" 2 (Durable.journal_records d);
  let d', _ = Durable.recover ~storage:st () in
  check_bool "batch completed by recovery" true
    (Db.summary (Durable.db d') ~view:"balance" [ vi 2 ] <> None)

let test_abort_erases_journal_record () =
  (* a genuine (non-crash) mid-fold failure: the batch rolls back AND
     its write-ahead record is erased — neither survives *)
  let st = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  let state_before = Snapshot.save db in
  Db.set_fold_probe db
    (Some (fun ~view:_ ~sn:_ -> failwith "maintenance bug"));
  (match Db.append db "mileage" [ post 2 50 ] with
  | _ -> Alcotest.fail "probe failure must propagate"
  | exception Failure _ -> ());
  check_string "batch rolled back" state_before (Snapshot.save db);
  check_int "write-ahead record erased" 1 (Durable.journal_records d);
  let d', _ = Durable.recover ~storage:st () in
  check_bool "aborted batch is not resurrected" true
    (Db.summary (Durable.db d') ~view:"balance" [ vi 2 ] = None);
  same_state "recovery equals the rolled-back state" db (Durable.db d')

(* Every write-ahead record shape, pinned byte for byte: a single
   append, a three-batch group, a relation insert, a retraction, and an
   append whose view fold fails (its record is written, then erased). *)
let test_golden_journal () =
  let st = Storage.mem () in
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage"
       Fixtures.mileage_schema);
  ignore
    (Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema
       ~key:[ "cust" ] ());
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "balance" ]))));
  let d = Durable.attach ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  ignore
    (Db.append_group db
       [
         [ ("mileage", [ post 2 50 ]) ];
         [ ("mileage", [ post 1 7; post 3 1 ]) ];
         [ ("mileage", [ post 2 5 ]) ];
       ]);
  Db.insert_rows db "customers" [ tup [ vi 1; vs "NJ" ] ];
  check_int "one row retracted" 1 (Db.retract db "mileage" [ post 1 7 ]);
  Db.set_fold_probe db (Some (fun ~view:_ ~sn:_ -> failwith "maintenance bug"));
  (match Db.append db "mileage" [ post 9 9 ] with
  | _ -> Alcotest.fail "probe failure must propagate"
  | exception Failure _ -> ());
  check_int "the failed append left no record" 4 (Durable.journal_records d);
  let records, tail = scan_stored st "journal" in
  check_bool "clean tail" true (tail = Journal.Complete);
  (* payload hex: tag byte, then fields — strings and lists
     length-prefixed, ints zigzag varints, values tagged (02 = Int,
     03 = Float as 8 big-endian bytes, 04 = Str) *)
  Alcotest.(check (list string))
    "journal bytes"
    [
      (* append: group "main", sn 1, batch [mileage: (1, 100, 1.0)] *)
      "00046d61696e0201076d696c6561676501030202" ^ "02c801033ff0000000000000";
      (* group: "main", entries sn 2, 3, 4 *)
      "01046d61696e03" ^ "0401076d696c65616765010302040264033ff0000000000000"
      ^ "0601076d696c6561676502030202020e033ff0000000000000"
      ^ "0302060202033ff0000000000000"
      ^ "0801076d696c6561676501030204020a033ff0000000000000";
      (* insert: relation "customers", at 0, rows [(1, "NJ")] *)
      "0209637573746f6d6572730001020202" ^ "04024e4a";
      (* retract: chronicle "mileage", entries [sn 3: (1, 7, 1.0)] *)
      "03076d696c6561676501060103020202" ^ "0e033ff0000000000000";
    ]
    (List.map hex records)

let test_multi_chronicle_rollback () =
  (* a failing multi-chronicle batch must roll back *every* sibling *)
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage"
       Fixtures.mileage_schema);
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"bonus"
       Fixtures.mileage_schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:
            (Ca.Union
               ( Ca.Chronicle (Db.chronicle db "mileage"),
                 Ca.Chronicle (Db.chronicle db "bonus") ))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "balance" ]))));
  ignore (Db.append_multi db [ ("mileage", [ post 1 10 ]); ("bonus", [ post 1 5 ]) ]);
  let state_before = Snapshot.save db in
  Db.set_fold_probe db (Some (fun ~view:_ ~sn:_ -> failwith "boom"));
  (match
     Db.append_multi db [ ("mileage", [ post 2 1 ]); ("bonus", [ post 2 2 ]) ]
   with
  | _ -> Alcotest.fail "fold failure must propagate"
  | exception Failure _ -> ());
  Db.set_fold_probe db None;
  check_string "both chronicles and the view rolled back" state_before
    (Snapshot.save db);
  (* and the path works again afterwards *)
  ignore (Db.append_multi db [ ("mileage", [ post 2 1 ]); ("bonus", [ post 2 2 ]) ]);
  check_bool "recovered after rollback" true
    (Db.summary db ~view:"balance" [ vi 2 ] <> None)

let test_crash_mid_checkpoint () =
  let st = Storage.mem () in
  let db = mk_db () in
  let fault = Fault.create () in
  let d = Durable.attach ~fault ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  ignore (Db.append db "mileage" [ post 2 50 ]);
  (* crash with the temp file written but not yet renamed *)
  Fault.arm fault "pre-checkpoint-rename";
  (match Durable.checkpoint d with
  | _ -> Alcotest.fail "armed crash point must fire"
  | exception Fault.Crash "pre-checkpoint-rename" -> ());
  let d1, r1 = Durable.recover ~storage:st () in
  same_state "old checkpoint + journal still describe the db" db
    (Durable.db d1);
  check_int "journal replayed" 2 r1.Durable.replayed;
  (* crash with the checkpoint renamed but the older generation and the
     sealed segment not yet pruned: the newest generation serves, and
     the segment it does not need is not read *)
  let db2 = mk_db () in
  let st2 = Storage.mem () in
  let fault2 = Fault.create () in
  let d2 = Durable.attach ~fault:fault2 ~storage:st2 db2 in
  ignore (Db.append db2 "mileage" [ post 1 100 ]);
  Fault.arm fault2 "post-checkpoint-rename";
  (match Durable.checkpoint d2 with
  | _ -> Alcotest.fail "armed crash point must fire"
  | exception Fault.Crash "post-checkpoint-rename" -> ());
  let d3, r3 = Durable.recover ~storage:st2 () in
  same_state "the sealed records are covered by the new generation" db2
    (Durable.db d3);
  check_int "nothing re-applied" 0 r3.Durable.replayed;
  check_int "nothing replayed to skip" 0 r3.Durable.skipped

let test_torn_write_drops_batch () =
  let st = Storage.mem () in
  let db = mk_db () in
  let fault = Fault.create () in
  let d = Durable.attach ~fault ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  let state_before = Snapshot.save db in
  Fault.arm_torn_write fault ~keep:10;
  (match Db.append db "mileage" [ post 2 50 ] with
  | _ -> Alcotest.fail "torn write must crash"
  | exception Fault.Crash "torn-write" -> ());
  check_string "nothing mutated" state_before (Snapshot.save db);
  ignore d;
  let d', report = Durable.recover ~storage:st () in
  check_bool "tear detected and dropped" true report.Durable.dropped_torn;
  check_int "only the complete record replays" 1 report.Durable.replayed;
  check_bool "torn batch is gone" true
    (Db.summary (Durable.db d') ~view:"balance" [ vi 2 ] = None);
  same_state "recovery equals the pre-tear state" db (Durable.db d')

let test_corrupt_journal_rejected_at_recovery () =
  let st = Storage.mem () in
  let db = mk_db () in
  let _d = Durable.attach ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  ignore (Db.append db "mileage" [ post 2 50 ]);
  (* flip a payload bit of the first journal record *)
  Fault.flip_bit st ~name:"journal" ~byte:(10 + 8 + 4) ~bit:3;
  match Durable.recover ~storage:st () with
  | _ -> Alcotest.fail "corrupt journal must be rejected"
  | exception Journal.Journal_corrupt { record = 0; _ } -> ()

(* A flipped high bit in a mid-journal record's length field makes the
   declared length run past the end of the segment.  CRC-valid records
   follow it, so this is damage, not a torn final record: strict
   recovery raises typed and salvage quarantines. *)
let test_corrupt_length_is_damage () =
  let st = Storage.mem () in
  let db = mk_db () in
  let _d = Durable.attach ~storage:st db in
  List.iter (fun a -> ignore (Db.append db "mileage" [ post a 10 ])) [ 1; 2; 3 ];
  (* magic is 10 bytes; record 0's big-endian length starts right after *)
  Fault.flip_bit st ~name:"journal" ~byte:10 ~bit:7;
  (match Journal.scan (Option.get (st.Storage.read "journal")) with
  | [], Journal.Damaged { index = 0; offset = 10; _ } -> ()
  | _ -> Alcotest.fail "a length past EOF with records after it must scan as damage");
  (match Durable.recover ~storage:st () with
  | _ -> Alcotest.fail "strict recovery must not drop the suffix silently"
  | exception Journal.Journal_corrupt { record = 0; _ } -> ());
  let _, report = Durable.recover ~mode:Durable.Salvage ~storage:st () in
  check_bool "salvage quarantined the damage" true (report.Durable.quarantined > 0);
  check_bool "salvage opened degraded" true report.Durable.degraded

(* Quarantine sidecars only ever grow: a second salvage of the same
   journal appends its damaged suffix after the bytes the first salvage
   parked, instead of replacing them. *)
let test_second_salvage_keeps_quarantine () =
  let st = Storage.mem () in
  let db = mk_db () in
  let _d = Durable.attach ~storage:st db in
  List.iter (fun a -> ignore (Db.append db "mileage" [ post a 10 ])) [ 1; 2; 3 ];
  let damage_record i =
    let recs, _ = Journal.scan (Option.get (st.Storage.read "journal")) in
    Fault.flip_bit st ~name:"journal" ~byte:(snd (List.nth recs i) + 12) ~bit:2
  in
  let sidecar () =
    Option.value ~default:""
      (st.Storage.read (Durable.quarantine_name "journal"))
  in
  damage_record 1;
  let _, report = Durable.recover ~mode:Durable.Salvage ~storage:st () in
  check_int "first salvage: one sidecar" 1 report.Durable.quarantined;
  let first = sidecar () in
  check_bool "first salvage parked bytes" true (String.length first > 0);
  (* the healed layout recovers strictly and takes new appends *)
  let d, _ = Durable.recover ~storage:st () in
  List.iter
    (fun a -> ignore (Db.append (Durable.db d) "mileage" [ post a 20 ]))
    [ 4; 5 ];
  Durable.detach d;
  damage_record 2;
  let journal = Option.get (st.Storage.read "journal") in
  let off =
    match Journal.scan journal with
    | _, Journal.Damaged { offset; _ } -> offset
    | _ -> Alcotest.fail "the flip must damage a record"
  in
  let _, report = Durable.recover ~mode:Durable.Salvage ~storage:st () in
  check_int "second salvage: one sidecar" 1 report.Durable.quarantined;
  check_string "the sidecar holds both damaged suffixes, in salvage order"
    (first ^ String.sub journal off (String.length journal - off))
    (sidecar ())

let test_disk_storage () =
  let dir = Filename.temp_file "chronicle_durability" "" in
  Sys.remove dir;
  let st = Storage.disk ~dir in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      if Sys.file_exists dir then Unix.rmdir dir)
    (fun () ->
      let db = mk_db () in
      let d = Durable.attach ~sync:(Journal.Sync_every 2) ~storage:st db in
      ignore (Db.append db "mileage" [ post 1 100 ]);
      ignore (Db.append db "mileage" [ post 2 50 ]);
      Durable.checkpoint d;
      ignore (Db.append db "mileage" [ post 3 25 ]);
      let d', report = Durable.recover ~storage:st () in
      check_bool "checkpoint loaded from disk" true
        (report.Durable.generation = Some 1);
      check_int "suffix replayed from disk" 1 report.Durable.replayed;
      same_state "disk round trip" db (Durable.db d'))

(* ---- typed recovery errors: corruption vs application failure ---- *)

(* Each CRC-valid but structurally malformed record shape must surface
   as [Journal.Journal_corrupt] with the record index — never a bare
   [Failure] — even when the malformed record is the journal's final
   record (structural damage is not "the batch that died with the
   process"). *)
let test_malformed_records_typed_at_recovery () =
  let shapes =
    [
      ("empty payload", "");
      ("unknown tag", "\x7f");
      (* append: group "main", sn 1, one batch entry "c" with no rows *)
      ("malformed append batch entry", "\x00\x04main\x02\x01\x01c");
      ("append missing fields", "\x00");
      (* define-view with index kind 5 *)
      ("bad index kind", "\x08\x05\x00");
      ("lying list count", "\x03\x01c\xff\xff\xff\x7f");
      ("trailing garbage", "\x04\x04main\x02junk");
    ]
  in
  List.iter
    (fun (what, payload) ->
      let st = Storage.mem () in
      let j = Journal.open_ st Durable.journal_file in
      Journal.append j payload;
      match Durable.recover ~storage:st () with
      | _ -> Alcotest.failf "%s: recovery must reject the record" what
      | exception Journal.Journal_corrupt { record = 0; _ } -> ()
      | exception e ->
          Alcotest.failf "%s: wanted Journal_corrupt at record 0, got %s" what
            (Printexc.to_string e))
    shapes

(* A *well-formed* record the database cannot apply is an application
   failure, not corruption: tolerated (and erased) when final, raised
   as [Durable.Recovery_error] when records follow it. *)
let test_application_failure_vs_malformation () =
  let record ev = Codec.encode Durable.put_event ev in
  (* well-formed append naming a chronicle that never existed *)
  let orphan sn =
    record (Db.Ev_append { group = "main"; sn; batch = [ ("ghost", [ post 1 100 ]) ] })
  in
  let add_group = record (Db.Ev_add_group { name = "g2"; clock_start = None }) in
  (* final record: dropped as the batch that died with the process *)
  let st = Storage.mem () in
  let j = Journal.open_ st Durable.journal_file in
  Journal.append j add_group;
  Journal.append j (orphan 1);
  let d, report = Durable.recover ~storage:st () in
  check_bool "final application failure is dropped" true
    report.Durable.dropped_failed;
  check_bool "preceding record still applied" true
    (List.mem "g2" (Db.group_names (Durable.db d)));
  (* recovery on fresh storage ends with a checkpoint, so the journal —
     failed record included — has been absorbed and sealed away *)
  check_int "dropped record erased from journal" 0 (Durable.journal_records d);
  (* and the recovered state must itself be recoverable *)
  let d2, report2 = Durable.recover ~storage:st () in
  check_bool "re-recovery is clean" false report2.Durable.dropped_failed;
  same_state "re-recovery round-trips" (Durable.db d) (Durable.db d2);
  (* non-final record: typed Recovery_error carrying the record index —
     a view definition over a chronicle the database lacks included: its
     definition is decoded only when applied, so the unknown name is an
     application failure, not corruption *)
  let ghost_view =
    let other = Db.create () in
    ignore (Db.add_chronicle other ~name:"ghost" Fixtures.mileage_schema);
    record
      (Db.Ev_define_view
         {
           index = Index.Hash;
           def =
             Sca.define ~name:"v"
               ~body:(Ca.Chronicle (Db.chronicle other "ghost"))
               (Sca.Project_out [ "acct" ]);
         })
  in
  List.iter
    (fun bad ->
      let st = Storage.mem () in
      let j = Journal.open_ st Durable.journal_file in
      Journal.append j bad;
      Journal.append j add_group;
      match Durable.recover ~storage:st () with
      | _ -> Alcotest.fail "non-final application failure must raise"
      | exception Durable.Recovery_error { record = 0; _ } -> ()
      | exception e ->
          Alcotest.failf "wanted Recovery_error at record 0, got %s"
            (Printexc.to_string e))
    [ orphan 1; ghost_view ]

(* Damage is reported in record order: a CRC-valid record that does
   not decode, ahead of a checksum mismatch, is the damage strict
   recovery names — the same record scrub reports and salvage cuts at. *)
let test_earliest_damage_reported () =
  let add_group name =
    Codec.encode Durable.put_event (Db.Ev_add_group { name; clock_start = None })
  in
  let st = Storage.mem () in
  let j = Journal.open_ st Durable.journal_file in
  List.iter (Journal.append j) [ add_group "g1"; "\x7f"; add_group "g2"; add_group "g3" ];
  let recs, _ = Journal.scan (Option.get (st.Storage.read Durable.journal_file)) in
  Fault.flip_bit st ~name:Durable.journal_file
    ~byte:(snd (List.nth recs 3) + 9)
    ~bit:0;
  (match Durable.recover ~storage:st () with
  | _ -> Alcotest.fail "strict recovery must reject the damage"
  | exception Journal.Journal_corrupt { record; reason } ->
      check_int "the earliest damage is named" 1 record;
      check_bool "as a malformed record" true
        (String.starts_with ~prefix:"malformed record: " reason));
  (match (Scrub.run st).Scrub.segments with
  | [ { Scrub.records = 1; seg_damage = Some { Journal.index = 1; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "scrub must stop at the same record");
  let d, report = Durable.recover ~mode:Durable.Salvage ~storage:st () in
  check_int "salvage replays the prefix before it" 1 report.Durable.replayed;
  check_bool "g1 recovered" true (List.mem "g1" (Db.group_names (Durable.db d)))

(* ---- self-healing storage: generations, segments, scrub ---- *)

let test_stale_checkpoint_tmp_removed () =
  let st = Storage.mem () in
  st.Storage.write Durable.checkpoint_tmp_file "half-written garbage";
  let db = mk_db () in
  let _d = Durable.attach ~storage:st db in
  check_bool "stale tmp deleted on attach" true
    (not (st.Storage.exists Durable.checkpoint_tmp_file));
  st.Storage.write Durable.checkpoint_tmp_file "half-written garbage";
  let _d', _ = Durable.recover ~storage:st () in
  check_bool "stale tmp deleted on recover" true
    (not (st.Storage.exists Durable.checkpoint_tmp_file));
  check_string "quarantine sidecar naming" "journal.3.quarantine"
    (Durable.quarantine_name "journal.3");
  check_raises_any "keep_checkpoints must be positive" (fun () ->
      ignore (Durable.attach ~keep_checkpoints:0 ~storage:(Storage.mem ()) (mk_db ())))

let test_one_generation_layout () =
  (* keep_checkpoints = 1 (the default) is one generation, not a second
     layout: the checkpoint seals the journal, writes generation 1 over
     it and prunes generation 0 with the sealed segment *)
  let st = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ~storage:st db in
  ignore (Db.append db "mileage" [ post 1 100 ]);
  Durable.checkpoint d;
  check_bool "exact file set" true
    (st.Storage.list () = [ "checkpoint.1"; "journal" ]);
  check_string "generation 1 over the sealed segment 0"
    (Ckpt.encode ~generation:1 ~first_segment:1 (Snapshot.save db))
    (Option.get (st.Storage.read "checkpoint.1"))

let test_generation_rotation_and_prune () =
  let st = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ~keep_checkpoints:3 ~storage:st db in
  check_int "keep_checkpoints" 3 (Durable.keep_checkpoints d);
  check_bool "no bare checkpoint in generation mode" true
    (not (st.Storage.exists "checkpoint"));
  check_int "initial generation written" 1 (List.length (Ckpt.generations st));
  for i = 1 to 4 do
    ignore (Db.append db "mileage" [ post i (10 * i) ]);
    Durable.checkpoint d
  done;
  let gens = Ckpt.generations st in
  check_int "pruned to three generations" 3 (List.length gens);
  check_bool "the newest three retained" true (List.map fst gens = [ 2; 3; 4 ]);
  ignore (Db.append db "mileage" [ post 9 1 ]);
  let d', report = Durable.recover ~storage:st () in
  check_bool "newest generation served" true
    (report.Durable.generation = Some 4);
  check_int "suffix replayed" 1 report.Durable.replayed;
  check_int "no fallbacks on a healthy layout" 0 report.Durable.fallbacks;
  same_state "generation round trip" db (Durable.db d')

let test_segment_rotation_and_recovery () =
  let st = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ~segment_bytes:160 ~storage:st db in
  for i = 1 to 8 do
    ignore (Db.append db "mileage" [ post i i ])
  done;
  ignore d;
  check_bool "journal rotated into sealed segments" true
    (List.length (Journal.segments st "journal") >= 2);
  check_bool "the active journal keeps the bare name" true
    (st.Storage.exists "journal");
  let d', report = Durable.recover ~storage:st () in
  check_int "all records replayed across segments" 8 report.Durable.replayed;
  same_state "segment round trip" db (Durable.db d');
  (* both instances append one more batch and stay in lockstep *)
  ignore (Db.append (Durable.db d') "mileage" [ post 9 9 ]);
  ignore (Db.append db "mileage" [ post 9 9 ]);
  same_state "recovered instance stays live across segments" db
    (Durable.db d')

let test_scrub_inventory () =
  let st = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ~keep_checkpoints:2 ~segment_bytes:160 ~storage:st db in
  for i = 1 to 4 do
    ignore (Db.append db "mileage" [ post i i ])
  done;
  Durable.checkpoint d;
  for i = 5 to 7 do
    ignore (Db.append db "mileage" [ post i i ])
  done;
  let contents () =
    List.map (fun n -> (n, st.Storage.read n)) (st.Storage.list ())
  in
  let bytes_before = contents () in
  let before = Stats.snapshot () in
  let inv = Scrub.run st in
  let after = Stats.snapshot () in
  check_bool "clean storage scrubs clean" true (Scrub.clean inv);
  check_int "both generations inventoried" 2
    (List.length inv.Scrub.checkpoints);
  let total =
    List.fold_left (fun acc s -> acc + s.Scrub.records) 0 inv.Scrub.segments
  in
  check_bool "records were verified" true (total >= 7);
  check_int "every verified record counted" total
    (Stats.diff_get before after Stats.Scrub_record);
  check_bool "scrub is read-only" true (contents () = bytes_before);
  (* damage one sealed segment: flip a bit in record 0's CRC field *)
  let _, seg = List.hd (Journal.segments st "journal") in
  Fault.flip_bit st ~name:seg ~byte:14 ~bit:1;
  let inv2 = Scrub.run st in
  check_bool "damage detected" true (not (Scrub.clean inv2));
  check_bool "damage located in the right segment" true
    (List.exists
       (fun s ->
         s.Scrub.seg_name = seg
         &&
         match s.Scrub.seg_damage with
         | Some { Journal.index = 0; _ } -> true
         | _ -> false)
       inv2.Scrub.segments);
  (* a damaged generation is inventoried too *)
  let _, gname = List.hd (Ckpt.generations st) in
  Fault.flip_bit st ~name:gname ~byte:12 ~bit:0;
  let inv3 = Scrub.run st in
  check_bool "checkpoint damage detected" true
    (List.exists
       (fun c -> c.Scrub.ck_name = gname && c.Scrub.ck_damage <> None)
       inv3.Scrub.checkpoints)

(* A bare [checkpoint] is the single-file layout of an earlier build.
   It is a checkpoint candidate that never verifies — recovery must not
   ignore it and start from an empty database: strict recovery raises
   the typed error, salvage quarantines it and degrades, scrub reports
   it.  Its bytes are generation 0's, so renaming it to [checkpoint.0]
   recovers the database. *)
let test_bare_checkpoint_refused () =
  let earlier_build () =
    let st = Storage.mem () in
    let db = mk_db () in
    let d = Durable.attach ~storage:st db in
    ignore (Db.append db "mileage" [ post 1 100 ]);
    Durable.detach d;
    st.Storage.rename (Ckpt.gen_name 0) "checkpoint";
    (st, db)
  in
  let st, _ = earlier_build () in
  (match Durable.recover ~storage:st () with
  | _ -> Alcotest.fail "strict recovery must refuse a bare checkpoint"
  | exception Durable.Checkpoint_corrupt { generation = None; reason } ->
      check_bool ("the reason says to rename it: " ^ reason) true
        (contains reason "rename it to checkpoint.0"));
  let inv = Scrub.run st in
  check_bool "scrub reports it damaged" false (Scrub.clean inv);
  check_bool "as the bare candidate" true
    (List.exists
       (fun c -> c.Scrub.ck_name = "checkpoint" && c.Scrub.ck_damage <> None)
       inv.Scrub.checkpoints);
  let bare = Option.get (st.Storage.read "checkpoint") in
  let _, report = Durable.recover ~mode:Durable.Salvage ~storage:st () in
  check_bool "salvage degrades" true report.Durable.degraded;
  check_int "one candidate failed" 1 report.Durable.fallbacks;
  check_bool "the bare file left the candidates" false (st.Storage.exists "checkpoint");
  check_string "its bytes are quarantined" bare
    (Option.get (st.Storage.read (Durable.quarantine_name "checkpoint")));
  (* the advice holds: renamed, the same bytes recover the database *)
  let st, db = earlier_build () in
  st.Storage.rename "checkpoint" (Ckpt.gen_name 0);
  let d, report = Durable.recover ~storage:st () in
  check_bool "generation 0 served" true (report.Durable.generation = Some 0);
  same_state "renamed, the bare bytes recover the database" db (Durable.db d)

(* A restarted instance seals its journal past the loaded generation's
   [first_segment], even when pruning removed every sealed segment: a
   crash before the next checkpoint's rename must replay what the
   restarted instance appended. *)
let test_restart_seals_past_generation () =
  List.iter
    (fun keep ->
      let st = Storage.mem () in
      let db = mk_db () in
      let d = Durable.attach ~keep_checkpoints:keep ~storage:st db in
      ignore (Db.append db "mileage" [ post 1 100 ]);
      (* the second checkpoint seals nothing and prunes the first
         sealed segment at keep 2 *)
      Durable.checkpoint d;
      Durable.checkpoint d;
      Durable.detach d;
      check_int
        (Printf.sprintf "no sealed segment left (keep %d)" keep)
        0
        (List.length (Journal.segments st "journal"));
      let fault = Fault.create () in
      let d, _ = Durable.recover ~fault ~keep_checkpoints:keep ~storage:st () in
      let db = Durable.db d in
      ignore (Db.append db "mileage" [ post 2 50 ]);
      Fault.arm fault "pre-checkpoint-rename";
      (match Durable.checkpoint d with
      | _ -> Alcotest.fail "armed crash point must fire"
      | exception Fault.Crash "pre-checkpoint-rename" -> ());
      let d', report = Durable.recover ~storage:st () in
      check_int (Printf.sprintf "the append replays (keep %d)" keep) 1
        report.Durable.replayed;
      same_state (Printf.sprintf "nothing lost (keep %d)" keep) db (Durable.db d'))
    [ 1; 2 ]

let suite =
  [
    test "crc32 vectors" test_crc32;
    test "journal framing roundtrip" test_journal_roundtrip;
    test "torn tails are tolerated" test_journal_torn_tail;
    test "checksum corruption is detected" test_journal_corruption_detected;
    test "sync policies parse" test_sync_policy_parse;
    test "attach journals every batch" test_attach_journals_appends;
    test "checkpoint resets the journal" test_checkpoint_resets_journal;
    test "recover = checkpoint + journal suffix" test_recover_checkpoint_plus_journal;
    test "recover from empty storage" test_recover_without_checkpoint_dir;
    test "recovery replays catalog changes" test_recovery_replays_catalog;
    test "crash after journal write" test_crash_after_journal_write;
    test "crash mid view fold" test_crash_mid_view_fold;
    test "genuine aborts erase their record" test_abort_erases_journal_record;
    test "multi-chronicle batches roll back atomically" test_multi_chronicle_rollback;
    test "crash mid checkpoint (both sides of the rename)" test_crash_mid_checkpoint;
    test "torn write drops exactly the torn batch" test_torn_write_drops_batch;
    test "corrupt journals are rejected at recovery" test_corrupt_journal_rejected_at_recovery;
    test "malformed records are typed corruption" test_malformed_records_typed_at_recovery;
    test "application failure vs malformation" test_application_failure_vs_malformation;
    test "disk-backed storage" test_disk_storage;
    test "stale checkpoint.tmp is removed" test_stale_checkpoint_tmp_removed;
    test "keeping one checkpoint writes one generation over a sealed journal"
      test_one_generation_layout;
    test "checkpoint generations rotate and prune" test_generation_rotation_and_prune;
    test "journal segments rotate and recover" test_segment_rotation_and_recovery;
    test "scrub inventories damage read-only" test_scrub_inventory;
    test "journal record bytes are pinned" test_golden_journal;
    test "a corrupted record length is damage, not a torn tail"
      test_corrupt_length_is_damage;
    test "a second salvage keeps the first one's quarantined bytes"
      test_second_salvage_keeps_quarantine;
    test "damage is reported in record order" test_earliest_damage_reported;
    test "a bare checkpoint is refused, quarantined and reported"
      test_bare_checkpoint_refused;
    test "a restarted instance seals past the loaded generation"
      test_restart_seals_past_generation;
  ]
