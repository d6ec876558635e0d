(* Whole-session snapshots: periodic families, windowed views and
   detector state survive the save/load cycle and keep evolving
   identically afterwards. *)

open Chronicle_lang
open Util

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
  let session' = Session_snapshot.load (Session_snapshot.save session) in
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
  let session' = Session_snapshot.load (Session_snapshot.save session) in
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
  check_raises_any "db-only snapshot rejected" (fun () ->
      ignore (Session_snapshot.load "((chronicle-snapshot 1))"));
  check_raises_any "garbage rejected" (fun () ->
      ignore (Session_snapshot.load "(nope)"))

let test_file_roundtrip () =
  let session = build () in
  let path = Filename.temp_file "chronicle_session" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Session_snapshot.save_file session path;
      let session' = Session_snapshot.load_file path in
      let a, b = run_both session session' "SHOW WINDOWED recent;" in
      check_tuples "via file" (rows (List.hd a)) (rows (List.hd b)))

(* The periodic-family section of a session snapshot, pinned: a Groups
   family and a Rows family, each with a slot holding an equal row
   appended twice.  Slot contents are written without multiplicities
   (keys and aggregate states only). *)
let test_golden_periodic () =
  let session = Session.create () in
  ignore
    (Analyze.run_script session
       "CREATE CHRONICLE t (a INT);\n\
        DEFINE PERIODIC VIEW g AS SELECT a, COUNT(*) AS k FROM CHRONICLE t \
        GROUP BY a CALENDAR TILING START 0 WIDTH 10;\n\
        DEFINE PERIODIC VIEW r AS SELECT a FROM CHRONICLE t CALENDAR TILING \
        START 0 WIDTH 10;\n\
        APPEND INTO t VALUES (1);\n\
        APPEND INTO t VALUES (1);");
  let saved = Session_snapshot.save session in
  let skip =
    String.length (Relational.Codec.magic ~tag:"CHRONSES" ~version:3)
    + String.length (Chronicle_core.Snapshot.save (Session.db session))
  in
  check_string "periodic section bytes, then no windowed views and no detectors"
    (* g: ... slot 0 [0, 10) active, Groups [([1], COUNT 2)]; r: ...
       slot 0 [0, 10) active, Rows [[1]]; then two empty lists *)
    ("02" ^ "0167016700017401010161010543" ^ "4f554e5400016b01001414000002"
   ^ "00" ^ "01000014010101010202010004" ^ "01720172000174000101610100"
   ^ "1414000002000100001401000101" ^ "0202" ^ "0000")
    (hex (String.sub saved skip (String.length saved - skip)))

(* The windowed-view section of a session snapshot, pinned: one group
   per key, each its window's start, head and clock once, then every
   bucket's cells (one state per aggregate call) in slot order.  The calls cover every
   state tag: COUNT, an INT and a FLOAT SUM, MIN over strings, AVG and
   VAR; the buckets hold a −0.0, an empty bucket and a retired one. *)
let test_golden_windowed () =
  let session = Session.create () in
  ignore
    (Analyze.run_script session
       "CREATE CHRONICLE t (a INT, x FLOAT, s STRING);\n\
        DEFINE WINDOWED VIEW w BUCKETS 3 WIDTH 2 AS SELECT a, COUNT(*) AS n, \
        SUM(a) AS sa, SUM(x) AS sx, MIN(s) AS lo, AVG(x) AS m, VAR(x) AS v \
        FROM CHRONICLE t GROUP BY a;\n\
        APPEND INTO t VALUES (1, 1.5, 'b');\n\
        ADVANCE CLOCK TO 3;\n\
        APPEND INTO t VALUES (1, -0.0, 'a'), (2, 0.25, 'c');\n\
        ADVANCE CLOCK TO 7;\n\
        APPEND INTO t VALUES (1, 2.0, 'd');");
  let saved = Session_snapshot.save session in
  let skip =
    String.length (Relational.Codec.magic ~tag:"CHRONSES" ~version:3)
    + String.length (Chronicle_core.Snapshot.save (Session.db session))
  in
  check_string "no periodic families, the windowed section, then no detectors"
    ("000101770177000174010101610605434f554e5400016e0353554d0101610273"
     ^ "610353554d010178027378034d494e010173026c6f03415647010178016d0356"
     ^ "4152010178017606040201020200060e03060002010102020101034000000000"
     ^ "0000000201040164034000000000000000020402400000000000000040100000"
     ^ "0000000006000201010202010103800000000000000002010401610300000000"
     ^ "0000000002040200000000000000000000000000000000060000010001000200"
     ^ "0300000000000000000004000000000000000000000000000000000001020400"
     ^ "0206030600000100010002000300000000000000000004000000000000000000"
     ^ "0000000000000000060002010102040101033fd0000000000000020104016303"
     ^ "3fd00000000000000204023fd00000000000003fb00000000000000600000100"
     ^ "0100020003000000000000000000040000000000000000000000000000000000"
     ^ "00")
    (hex (String.sub saved skip (String.length saved - skip)))

(* A version-2 session snapshot repeated each window's start, head and
   clock once per aggregate call; it is refused with the typed error,
   naming its version. *)
let test_version_2_refused () =
  let saved = Session_snapshot.save (build ()) in
  let magic = Relational.Codec.magic ~tag:"CHRONSES" ~version:3 in
  let n = String.length magic in
  let v2 =
    Relational.Codec.magic ~tag:"CHRONSES" ~version:2
    ^ String.sub saved n (String.length saved - n)
  in
  match Session_snapshot.load v2 with
  | _ -> Alcotest.fail "a version-2 session snapshot must be refused"
  | exception Session_snapshot.Session_snapshot_error reason ->
      check_bool ("the reason names version 2: " ^ reason) true
        (contains reason "version 2")

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
