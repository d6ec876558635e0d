(* Saved snapshots (`run --save`/`--load`): periodic families, windowed
   views and detector state live in the database's catalog, survive the
   save/load cycle in the one checkpoint frame and keep evolving
   identically afterwards. *)

open Chronicle_core
open Chronicle_lang
open Chronicle_durability
open Util

let save session = Durable.save_snapshot (Session.db session)
let load data = Session.of_db (Durable.load_snapshot data)

let build () =
  let session = Session.create () in
  ignore
    (Analyze.run_script session
       "CREATE CHRONICLE trades (symbol STRING, shares INT);\n\
        DEFINE VIEW volume AS SELECT symbol, SUM(shares) AS total FROM \
        CHRONICLE trades GROUP BY symbol;\n\
        DEFINE PERIODIC VIEW monthly AS SELECT symbol, SUM(shares) AS s FROM \
        CHRONICLE trades GROUP BY symbol CALENDAR TILING START 0 WIDTH 10 \
        EXPIRE 50;\n\
        DEFINE WINDOWED VIEW recent BUCKETS 5 AS SELECT symbol, SUM(shares) \
        AS s FROM CHRONICLE trades GROUP BY symbol;\n\
        DEFINE RULE burst ON trades KEY (symbol) WITHIN 4 COOLDOWN 6 WHEN \
        REPEAT 2 EVENT t (shares > 50);\n\
        APPEND INTO trades VALUES ('T', 100);\n\
        ADVANCE CLOCK TO 3;\n\
        APPEND INTO trades VALUES ('T', 60);\n\
        ADVANCE CLOCK TO 12;\n\
        APPEND INTO trades VALUES ('GE', 80);");
  session

let run_both session session' src =
  let a = Analyze.run_script session src in
  let b = Analyze.run_script session' src in
  (a, b)

let rows = function
  | Analyze.Rows (_, tuples) -> tuples
  | _ -> Alcotest.fail "expected rows"

let test_roundtrip_and_continuation () =
  let session = build () in
  let session' = load (save session) in
  (* every queryable surface answers identically, now ... *)
  let compare_on src =
    let a, b = run_both session session' src in
    List.iter2
      (fun ra rb -> check_tuples ("same " ^ src) (rows ra) (rows rb))
      a b
  in
  compare_on "SHOW VIEW volume;";
  compare_on "SHOW PERIODIC monthly AT 0;";
  compare_on "SHOW PERIODIC monthly;";
  compare_on "SHOW WINDOWED recent;";
  compare_on "SHOW ALERTS;";
  (* ... and after identical further activity: the partial instance for
     GE (one shares>50 event at chronon 12) must have survived, so a
     second event completes the burst in both sessions *)
  let more =
    "ADVANCE CLOCK TO 14;\nAPPEND INTO trades VALUES ('GE', 70);\nSHOW ALERTS;"
  in
  let a, b = run_both session session' more in
  let alerts r = rows (List.nth r 2) in
  check_tuples "alerts agree after continuation" (alerts a) (alerts b);
  check_int "the GE burst fired" 2 (List.length (alerts a));
  compare_on "SHOW VIEW volume;";
  compare_on "SHOW WINDOWED recent;";
  compare_on "SHOW PERIODIC monthly;"

let test_cooldown_survives () =
  let session = build () in
  (* fire the burst for T, then snapshot inside the cooldown window *)
  ignore
    (Analyze.run_script session
       "ADVANCE CLOCK TO 15;\nAPPEND INTO trades VALUES ('T', 90), ('T', 95);");
  let before = List.length (rows (List.hd (Analyze.run_script session "SHOW ALERTS;"))) in
  check_bool "T burst fired" true (before >= 1);
  let session' = load (save session) in
  (* still cooling: an immediate new pair must not fire in either *)
  let again =
    "ADVANCE CLOCK TO 16;\nAPPEND INTO trades VALUES ('T', 90), ('T', 95);\n\
     SHOW ALERTS;"
  in
  let a, b = run_both session session' again in
  check_tuples "cooldown state preserved"
    (rows (List.nth a 2))
    (rows (List.nth b 2))

let test_not_a_session_snapshot () =
  check_raises_any "S-expression snapshot rejected" (fun () ->
      ignore (load "((chronicle-snapshot 1))"));
  check_raises_any "garbage rejected" (fun () -> ignore (load "(nope)"));
  check_raises_any "a bare payload rejected" (fun () ->
      ignore (load (Snapshot.save (Session.db (build ())))))

let test_file_roundtrip () =
  let session = build () in
  let path = Filename.temp_file "chronicle_session" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (save session));
      let session' = load (In_channel.with_open_bin path In_channel.input_all) in
      let a, b = run_both session session' "SHOW WINDOWED recent;" in
      check_tuples "via file" (rows (List.hd a)) (rows (List.hd b)))

(* The bytes of a snapshot after the persistent views: the temporal
   sections of the database [script] builds.  [plain] is the same script
   without its temporal definitions; its snapshot ends in three empty
   sections, one byte each. *)
let temporal_sections ~plain script =
  let run src =
    let session = Session.create () in
    ignore (Analyze.run_script session src);
    Snapshot.save (Session.db session)
  in
  let saved = run script and prefix = String.length (run plain) - 3 in
  String.sub saved prefix (String.length saved - prefix)

(* The periodic-family section of a snapshot, pinned: a Groups family
   and a Rows family, each with a slot holding an equal row appended
   twice.  Slot contents use the persistent views' codec, multiplicities
   included. *)
let test_golden_periodic () =
  let script defs =
    "CREATE CHRONICLE t (a INT);\n" ^ defs
    ^ "APPEND INTO t VALUES (1);\nAPPEND INTO t VALUES (1);"
  in
  let sections =
    temporal_sections ~plain:(script "")
      (script
         "DEFINE PERIODIC VIEW g AS SELECT a, COUNT(*) AS k FROM CHRONICLE t \
          GROUP BY a CALENDAR TILING START 0 WIDTH 10;\n\
          DEFINE PERIODIC VIEW r AS SELECT a FROM CHRONICLE t CALENDAR TILING \
          START 0 WIDTH 10;\n")
  in
  check_string "periodic section bytes, then no windowed views and no detectors"
    (* g: ... slot 0 [0, 10) active, Groups [([1], mult 2, COUNT 2)];
       r: ... slot 0 [0, 10) active, Rows [([1], mult 2)]; then two
       empty lists *)
    ("02" ^ "0167016700017401010161010543" ^ "4f554e5400016b01001414000002"
   ^ "00" ^ "0100001401010101020204010004" ^ "01720172000174000101610100"
   ^ "1414000002000100001401000101" ^ "020204" ^ "0000")
    (hex sections)

(* The windowed-view section of a snapshot, pinned: the view's shape
   and bucket origin, then one group per key, each its window's start,
   head and clock once, then every bucket's cells (one state per
   aggregate call) in slot order.  The calls cover every state tag:
   COUNT, an INT and a FLOAT SUM, MIN over strings, AVG and VAR; the
   buckets hold a −0.0, an empty bucket and a retired one. *)
let test_golden_windowed () =
  let script defs =
    "CREATE CHRONICLE t (a INT, x FLOAT, s STRING);\n" ^ defs
    ^ "APPEND INTO t VALUES (1, 1.5, 'b');\n\
       ADVANCE CLOCK TO 3;\n\
       APPEND INTO t VALUES (1, -0.0, 'a'), (2, 0.25, 'c');\n\
       ADVANCE CLOCK TO 7;\n\
       APPEND INTO t VALUES (1, 2.0, 'd');"
  in
  let sections =
    temporal_sections ~plain:(script "")
      (script
         "DEFINE WINDOWED VIEW w BUCKETS 3 WIDTH 2 AS SELECT a, COUNT(*) AS n, \
          SUM(a) AS sa, SUM(x) AS sx, MIN(s) AS lo, AVG(x) AS m, VAR(x) AS v \
          FROM CHRONICLE t GROUP BY a;\n")
  in
  check_string "no periodic families, the windowed section, then no detectors"
    ("000101770177000174010101610605434f554e5400016e0353554d0101610273"
     ^ "610353554d010178027378034d494e010173026c6f03415647010178016d0356"
     ^ "415201017801760604" ^ "00" ^ "0201020200060e03060002010102020101034000000000"
     ^ "0000000201040164034000000000000000020402400000000000000040100000"
     ^ "0000000006000201010202010103800000000000000002010401610300000000"
     ^ "0000000002040200000000000000000000000000000000060000010001000200"
     ^ "0300000000000000000004000000000000000000000000000000000001020400"
     ^ "0206030600000100010002000300000000000000000004000000000000000000"
     ^ "0000000000000000060002010102040101033fd0000000000000020104016303"
     ^ "3fd00000000000000204023fd00000000000003fb00000000000000600000100"
     ^ "0100020003000000000000000000040000000000000000000000000000000000"
     ^ "00")
    (hex sections)

(* The session snapshots of earlier builds ("CHRONSES2", "CHRONSES3")
   held the temporal readers beside the database; [--load] refuses them
   with the typed error, naming the format. *)
let test_version_2_refused () =
  let payload = Snapshot.save (Session.db (build ())) in
  List.iter
    (fun version ->
      let format = Printf.sprintf "CHRONSES%d" version in
      match load (Relational.Codec.magic ~tag:"CHRONSES" ~version ^ payload) with
      | _ -> Alcotest.failf "a %s session snapshot must be refused" format
      | exception Durable.Checkpoint_corrupt { generation = None; reason } ->
          check_bool ("the reason names " ^ format ^ ": " ^ reason) true
            (contains reason format))
    [ 2; 3 ]

let suite =
  [
    test "periodic family bytes are pinned" test_golden_periodic;
    test "windowed view bytes are pinned" test_golden_windowed;
    test "roundtrip and identical continuation" test_roundtrip_and_continuation;
    test "detector cooldowns survive" test_cooldown_survives;
    test "malformed inputs rejected" test_not_a_session_snapshot;
    test "file save/load" test_file_roundtrip;
    test "a version-2 session snapshot is refused" test_version_2_refused;
  ]
