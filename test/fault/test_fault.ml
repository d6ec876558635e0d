(* The crash-equivalence property suite.

   For a workload W = op₁ … opₙ and a crash injected at any instrumented
   point while opᵢ executes, let Sⱼ be the state a clean (never-crashing)
   run reaches after op₁ … opⱼ.  The property:

       state(recover(storage after crash during opᵢ)) ∈ { Sᵢ₋₁, Sᵢ }

   i.e. every operation is all-or-nothing across a crash: either its
   write-ahead record reached stable storage (recovery finishes it — Sᵢ)
   or it did not (recovery yields exactly the previous state — Sᵢ₋₁).
   Nothing in between is ever observable, and no earlier operation is
   ever lost.  States are compared as canonical snapshot documents
   ({!Snapshot.save}), which cover catalog, watermarks, clocks, retained
   chronicle windows, relations and materialized views.

   Two drivers share one harness: a deterministic exhaustive sweep
   (every crash point × every countdown up to a cap, plus torn writes)
   and a QCheck property over randomized workloads and crash scripts. *)

open Relational
open Chronicle_core
open Chronicle_durability

(* durability's [Group] is the commit-group stager; the chronicle
   group of Chronicle_core is what these tests mean by [Group] *)
module Group = Chronicle_core.Group

let vi i = Value.Int i
let vf f = Value.Float f
let vs s = Value.Str s
let tup = Tuple.make

(* ---- the workload vocabulary ---- *)

type op =
  | Append of (int * int) list (* mileage rows: (acct, miles) *)
  | Bonus of (int * int) list (* bonus rows *)
  | Multi of (int * int) list * (int * int) list (* one sn, both chronicles *)
  | Group of ((int * int) list * (int * int) list) list
    (* group commit: each element is one staged append (its own sn,
       both chronicles); the whole group is one journal record and
       all-or-nothing across a crash *)
  | Clock of int (* advance by n >= 1 *)
  | Checkpoint
  | Rel of int * string
    (* insert a customers row (key-join catalog only) through the
       journaled Db.insert_rows path — an Ev_insert write-ahead
       record, no checkpoint needed — so that later key-join folds
       probe a relation that changed between appends *)
  | Retract of int
    (* retract the n oldest retained mileage rows (retract catalog
       only: requires Full retention) through the journaled
       Db.retract path — an Ev_retract write-ahead record.  The
       victims are read from the store at application time, so the op
       is deterministic given the database state, and the sequential
       oracle and the crashing run resolve it identically *)
  | Temporal
    (* define a periodic view, a windowed view and a rule over
       mileage: three journaled Ev_define_temporal records; the readers
       then fold every later append after its commit *)

let show_op = function
  | Append rows ->
      "Append[" ^ String.concat ";" (List.map (fun (a, m) -> Printf.sprintf "%d:%d" a m) rows) ^ "]"
  | Bonus rows ->
      "Bonus[" ^ String.concat ";" (List.map (fun (a, m) -> Printf.sprintf "%d:%d" a m) rows) ^ "]"
  | Multi (a, b) ->
      Printf.sprintf "Multi[%d+%d rows]" (List.length a) (List.length b)
  | Group parts ->
      Printf.sprintf "Group[%s]"
        (String.concat "|"
           (List.map
              (fun (a, b) ->
                Printf.sprintf "%d+%d" (List.length a) (List.length b))
              parts))
  | Clock n -> Printf.sprintf "Clock+%d" n
  | Checkpoint -> "Checkpoint"
  | Rel (cust, state) -> Printf.sprintf "Rel[%d:%s]" cust state
  | Retract n -> Printf.sprintf "Retract[%d]" n
  | Temporal -> "Temporal"

let show_ops ops = String.concat " " (List.map show_op ops)

let row (acct, miles) = tup [ vi acct; vi miles; vf 1. ]

let mileage_schema =
  Schema.make
    [ ("acct", Value.TInt); ("miles", Value.TInt); ("fare", Value.TFloat) ]

(* Catalog under test: two chronicles in one group (ring and discard
   retention), one relation, and three views — a grouped aggregate over
   a union of both chronicles, a guarded selection view, and a guarded
   per-account view (so batches affect one, two or three views, and a
   parallel run has real partitions to hand out). *)
let mk_db ?jobs () =
  let db = Db.create ?jobs () in
  ignore
    (Db.add_chronicle db ~retention:(Chron.Window 4) ~name:"mileage"
       mileage_schema);
  ignore (Db.add_chronicle db ~name:"bonus" mileage_schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:
            (Ca.Union
               ( Ca.Chronicle (Db.chronicle db "mileage"),
                 Ca.Chronicle (Db.chronicle db "bonus") ))
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "balance"; Aggregate.count_star "n" ] ))));
  ignore
    (Db.define_view db ~index:Index.Ordered
       (Sca.define ~name:"big"
          ~body:
            (Ca.Select
               (Predicate.("miles" >% vi 50), Ca.Chronicle (Db.chronicle db "mileage")))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.max_ "miles" "hi" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"acct2"
          ~body:
            (Ca.Select
               (Predicate.("acct" =% vi 2), Ca.Chronicle (Db.chronicle db "bonus")))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "b2" ]))));
  db

let apply ?durable db op =
  match op with
  | Append rows -> ignore (Db.append db "mileage" (List.map row rows))
  | Bonus rows -> ignore (Db.append db "bonus" (List.map row rows))
  | Multi (a, b) ->
      ignore
        (Db.append_multi db
           [ ("mileage", List.map row a); ("bonus", List.map row b) ])
  | Group parts ->
      ignore
        (Db.append_group db
           (List.map
              (fun (a, b) ->
                [ ("mileage", List.map row a); ("bonus", List.map row b) ])
              parts))
  | Clock n -> Db.advance_clock db (Group.now (Db.default_group db) + n)
  | Checkpoint -> (
      match durable with Some d -> Durable.checkpoint d | None -> ())
  | Rel (cust, state) ->
      Db.insert_rows db "customers" [ tup [ vi cust; vs state ] ]
  | Retract n -> (
      let stored = Chron.stored (Db.chronicle db "mileage") in
      let rec take k = function
        | tagged :: rest when k > 0 ->
            Array.sub tagged 1 (Array.length tagged - 1) :: take (k - 1) rest
        | _ -> []
      in
      match take n stored with
      | [] -> ()
      | victims -> ignore (Db.retract db "mileage" victims))
  | Temporal ->
      let def name =
        Sca.define ~name ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ]))
      in
      List.iter (Db.define_temporal db)
        [
          Db.Periodic_def
            {
              name = "p";
              family =
                Periodic.create ~expire_after:4 ~def:(def "p")
                  ~calendar:(Calendar.tiling ~start:0 ~width:2) ();
            };
          Db.Windowed_def
            { name = "w"; view = Windowed_view.derive ~bucket_width:2 ~buckets:2 (def "w") };
          Db.Rule_def
            {
              chronicle = "mileage";
              rule =
                Detector.rule ~name:"twice" ~key:[ "acct" ] ~within:3
                  ~pattern:(Pattern.repeat 2 (Pattern.atom "e" Predicate.("miles" >% vi 50)))
                  ();
            };
        ]

(* Clean-run states S₀ … Sₙ — always computed sequentially (jobs = 1),
   so a crashed-and-recovered parallel run is checked against the
   sequential states: crash equivalence and parallel transparency in
   one comparison.  [mk] swaps the catalog (jobs ↦ database). *)
let clean_states ?(mk = fun jobs -> mk_db ~jobs ()) ops =
  let db = mk 1 in
  (* bind S₀ before mapping: [::] evaluates right-to-left, and the map
     mutates [db] *)
  let s0 = Snapshot.save db in
  Array.of_list
    (s0
    :: List.map
         (fun op ->
           apply db op;
           Snapshot.save db)
         ops)

(* Run the workload durably with [script] armed after attach, keeping
   [keep] checkpoint generations; returns the number of ops that
   completed before a crash (n = no crash). *)
let durable_run ?(mk = fun jobs -> mk_db ~jobs ()) ?(keep = 1) ops ~jobs
    ~storage ~fault ~script =
  let db = mk jobs in
  let d = Durable.attach ~fault ~keep_checkpoints:keep ~storage db in
  script fault;
  let applied = ref 0 in
  (try
     List.iter
       (fun op ->
         apply ~durable:d db op;
         incr applied)
       ops
   with Fault.Crash _ -> ());
  (!applied, Fault.is_dead fault)

(* The property itself.  [jobs] is the maintenance parallelism of the
   crashing run and of recovery; the reference states stay sequential.
   [keep] is the crashing run's checkpoint generations. *)
let check_crash_equivalence ?(what = "") ?(jobs = 1) ?keep ?mk ?on_crashed ops
    script =
  let states = clean_states ?mk ops in
  let storage = Storage.mem () in
  let fault = Fault.create () in
  let applied, crashed =
    durable_run ?mk ?keep ops ~jobs ~storage ~fault ~script
  in
  (* the op the crash interrupted, if any *)
  Option.iter
    (fun f -> f (if crashed then List.nth_opt ops applied else None))
    on_crashed;
  let d, _report = Durable.recover ~jobs ~storage () in
  let recovered = Snapshot.save (Durable.db d) in
  let ok =
    if not crashed then recovered = states.(Array.length states - 1)
    else
      recovered = states.(applied)
      || (applied + 1 < Array.length states && recovered = states.(applied + 1))
  in
  if not ok then
    Alcotest.failf
      "crash-equivalence violated (%s): crashed=%b after %d/%d ops\n\
       workload: %s"
      what crashed applied (List.length ops) (show_ops ops);
  (* recovery must be stable: recovering again changes nothing *)
  let d2, _ = Durable.recover ~storage () in
  if Snapshot.save (Durable.db d2) <> recovered then
    Alcotest.failf "recovery is not idempotent (%s): %s" what (show_ops ops)

(* ---- deterministic exhaustive sweep ---- *)

let fixed_workload =
  [
    Append [ (1, 100); (2, 40) ];
    Clock 2;
    Bonus [ (1, 10) ];
    Multi ([ (3, 75) ], [ (2, 5) ]);
    Checkpoint;
    Append [ (1, 60); (3, 51); (2, 1) ];
    Append [];
    Clock 1;
    Bonus [ (3, 2); (1, 1) ];
    Checkpoint;
    Append [ (4, 99) ];
    Multi ([ (4, 1) ], [ (4, 2) ]);
    Group [ ([ (1, 30) ], []); ([], [ (2, 8) ]); ([ (5, 120) ], [ (5, 1) ]) ];
    Clock 1;
    Group [ ([ (2, 9) ], [ (3, 4) ]) ];
  ]

let crash_points =
  [
    "post-journal-write";
    "post-group-write";
    "view-fold";
    "pre-checkpoint-rename";
    "post-checkpoint-rename";
  ]

(* Every point at one kept generation and at three: a checkpoint seals,
   writes and prunes along the same path at every [keep], and the crash
   lands on either side of its rename. *)
let test_exhaustive_crash_sweep () =
  let max_countdown = 14 in
  List.iter
    (fun (jobs, keep) ->
      List.iter
        (fun point ->
          for k = 0 to max_countdown do
            check_crash_equivalence
              ~what:
                (Printf.sprintf "%s after %d hits (jobs=%d, keep=%d)" point k
                   jobs keep)
              ~jobs ~keep fixed_workload
              (fun fault -> Fault.arm fault ~after:k point)
          done)
        crash_points)
    [ (1, 1); (1, 3); (2, 1); (2, 3) ];
  (* the view-fold point is the one probed concurrently from pool
     domains: sweep it at a higher degree too *)
  for k = 0 to max_countdown do
    check_crash_equivalence
      ~what:(Printf.sprintf "view-fold after %d hits (jobs=4)" k)
      ~jobs:4 fixed_workload
      (fun fault -> Fault.arm fault ~after:k "view-fold")
  done

(* Temporal-reader crash sweep: the fixed workload with a periodic view,
   a windowed view and a rule defined after its first append and clock
   advance, so their definitions are journal records among appends (a
   crash before the first checkpoint recovers them by replay) and later
   checkpoints carry their state.  Every point, at one kept generation
   and at three. *)
let test_temporal_crash_sweep () =
  let workload =
    match fixed_workload with
    | a :: c :: rest -> a :: c :: Temporal :: rest
    | _ -> assert false
  in
  List.iter
    (fun keep ->
      List.iter
        (fun point ->
          for k = 0 to 14 do
            check_crash_equivalence
              ~what:(Printf.sprintf "temporal: %s after %d hits (keep=%d)" point k keep)
              ~keep workload
              (fun fault -> Fault.arm fault ~after:k point)
          done)
        crash_points)
    [ 1; 3 ]

(* Group-commit crash sweep: a group-heavy workload (the final record is
   a group) crashed inside the half-committed-group window — after the
   group record reached the journal but before any ack
   ("post-journal-write" / "post-group-write") and mid-fan-out while
   pool domains fold the combined Δ ("view-fold").  The property is the
   same crash equivalence: the recovered state is pre-group or
   post-group, never a partial group. *)
let group_workload =
  [
    Append [ (1, 100) ];
    Group [ ([ (2, 40) ], []); ([ (3, 75) ], [ (1, 10) ]); ([], [ (2, 5) ]) ];
    Clock 1;
    Group [ ([ (1, 60); (3, 51) ], [ (3, 2) ]) ];
    Checkpoint;
    Group
      [
        ([ (4, 99) ], []);
        ([ (2, 7) ], [ (4, 2) ]);
        ([ (5, 1) ], []);
        ([ (1, 1) ], [ (1, 1) ]);
      ];
  ]

let test_group_crash_sweep () =
  let max_countdown = 8 in
  List.iter
    (fun jobs ->
      List.iter
        (fun point ->
          for k = 0 to max_countdown do
            check_crash_equivalence
              ~what:
                (Printf.sprintf "group: %s after %d hits (jobs=%d)" point k
                   jobs)
              ~jobs group_workload
              (fun fault -> Fault.arm fault ~after:k point)
          done)
        [ "post-journal-write"; "post-group-write"; "view-fold" ])
    [ 1; 2; 4 ]

(* Key-join crash sweep.  A key-join catalog whose relation gains rows
   between appends through journaled [Rel] inserts, so later folds
   probe a changed relation.  Two views share one key-join stage, so a
   crash in the fold of either consumer interrupts an entry whose
   stage output the other reads.  The crash points sit in the view
   fold, after an append's write-ahead record and after an insert's;
   the recovered state is Sᵢ₋₁ or Sᵢ. *)
let customer_schema =
  Schema.make [ ("cust", Value.TInt); ("state", Value.TStr) ]

let mk_keyjoin_db ?jobs () =
  let db = Db.create ?jobs () in
  ignore (Db.add_chronicle db ~name:"mileage" mileage_schema);
  ignore (Db.add_chronicle db ~name:"bonus" mileage_schema);
  let cust =
    Db.add_relation db ~name:"customers" ~schema:customer_schema
      ~key:[ "cust" ] ()
  in
  List.iter
    (fun (c, s) -> Versioned.insert cust (tup [ vi c; vs s ]))
    [ (1, "NJ"); (2, "NY"); (3, "NJ"); (4, "CA"); (5, "NY") ];
  let joined =
    Ca.KeyJoinRel
      ( Ca.Chronicle (Db.chronicle db "mileage"),
        Versioned.relation cust,
        [ ("acct", "cust") ] )
  in
  ignore
    (Db.define_view db
       (Sca.define ~name:"by_state" ~body:joined
          (Sca.Group_agg ([ "state" ], [ Aggregate.sum "miles" "total" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"by_state_max" ~body:joined
          (Sca.Group_agg ([ "state" ], [ Aggregate.max_ "miles" "hi" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"bonus_bal"
          ~body:(Ca.Chronicle (Db.chronicle db "bonus"))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "b" ]))));
  db

let keyjoin_workload =
  [
    Append [ (1, 10); (2, 40) ];
    Append [ (1, 11) ];
    Append [ (1, 12) ];
    Rel (6, "TX") (* journaled via Ev_insert *);
    Append [ (1, 13) ];
    Multi ([ (1, 14) ], [ (3, 2) ]);
    Group [ ([ (1, 15) ], []); ([ (1, 16); (2, 5) ], [ (2, 1) ]) ];
    Rel (7, "OR");
    Append [ (1, 17); (3, 9) ];
    Checkpoint;
    Append [ (1, 18) ];
  ]

let test_keyjoin_crash_sweep () =
  let mk jobs = mk_keyjoin_db ~jobs () in
  List.iter
    (fun jobs ->
      List.iter
        (fun point ->
          (* guard against a vacuous sweep: every point must take the
             process down at least once over the countdown range *)
          let fired = ref false in
          for k = 0 to 5 do
            check_crash_equivalence
              ~what:
                (Printf.sprintf "key join: %s after %d hits (jobs=%d)" point
                   k jobs)
              ~jobs ~mk
              ~on_crashed:(fun op -> fired := !fired || op <> None)
              keyjoin_workload
              (fun fault -> Fault.arm fault ~after:k point)
          done;
          if not !fired then
            Alcotest.failf "crash point %s never fired (jobs=%d)" point jobs)
        [ "view-fold"; "post-journal-write"; "post-insert-write" ])
    [ 1; 2; 4 ]

(* A failure in the first consumer of a shared stage — the stage not
   yet run for the entry — rolls the whole group back: both sharing
   views, the chronicles and the watermark are as before the group, at
   every parallelism, and the same group then commits and equals a
   clean run. *)
let test_keyjoin_shared_rollback () =
  let group =
    Group [ ([ (1, 15) ], []); ([ (1, 16); (2, 5) ], [ (2, 1) ]); ([ (3, 7) ], []) ]
  in
  let clean = mk_keyjoin_db ~jobs:1 () in
  List.iter (apply clean) [ Append [ (1, 10); (2, 40) ]; group ];
  List.iter
    (fun jobs ->
      let db = mk_keyjoin_db ~jobs () in
      apply db (Append [ (1, 10); (2, 40) ]);
      let before = Snapshot.save db in
      Db.set_fold_probe db
        (Some
           (fun ~view ~sn:_ ->
             if view = "by_state" then failwith "by_state fold failed"));
      (match apply db group with
      | () -> Alcotest.failf "the failing fold did not abort the group (jobs=%d)" jobs
      | exception Failure _ -> ());
      if Snapshot.save db <> before then
        Alcotest.failf "the group did not roll back (jobs=%d)" jobs;
      Db.set_fold_probe db None;
      apply db group;
      if Snapshot.save db <> Snapshot.save clean then
        Alcotest.failf "the retried group differs from a clean run (jobs=%d)" jobs)
    [ 1; 2; 4 ]

(* Retraction crash sweep.  A Full-retention twin of the standard
   catalog (Db.retract refuses anything weaker), same three views.
   The crash points bracket the retraction's write-ahead window: after
   the Ev_retract record reaches the journal but before any store or
   view mutates ("post-retract-write" — recovery must finish the
   retraction from the journal, Sᵢ) and mid-fan-out while the views
   absorb the weight −1 delta ("view-fold").  The property is the
   standard crash equivalence plus replay idempotence: a recovery that
   already holds the retraction (checkpointed post-retract state) must
   skip the record, never double-retract. *)
let mk_retract_db ?jobs () =
  let db = Db.create ?jobs () in
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage" mileage_schema);
  ignore
    (Db.add_chronicle db ~retention:Chron.Full ~name:"bonus" mileage_schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:
            (Ca.Union
               ( Ca.Chronicle (Db.chronicle db "mileage"),
                 Ca.Chronicle (Db.chronicle db "bonus") ))
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "balance"; Aggregate.count_star "n" ] ))));
  ignore
    (Db.define_view db ~index:Index.Ordered
       (Sca.define ~name:"big"
          ~body:
            (Ca.Select
               (Predicate.("miles" >% vi 50), Ca.Chronicle (Db.chronicle db "mileage")))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.max_ "miles" "hi" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"acct2"
          ~body:
            (Ca.Select
               (Predicate.("acct" =% vi 2), Ca.Chronicle (Db.chronicle db "bonus")))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "b2" ]))));
  db

let retract_workload =
  [
    Append [ (1, 100); (2, 40) ];
    Retract 1;
    Bonus [ (1, 10) ];
    Append [ (1, 60); (3, 51); (2, 1) ];
    Retract 2 (* spans two sequence numbers: one Ev_retract record *);
    Clock 1;
    Checkpoint (* the surviving store, checkpointed mid-history *);
    Append [ (4, 99); (1, 80) ];
    Multi ([ (4, 1) ], [ (4, 2) ]);
    Retract 3;
    Group [ ([ (1, 30) ], []); ([ (5, 120) ], [ (5, 1) ]) ];
    Retract 1;
  ]

let test_retract_crash_sweep () =
  let mk jobs = mk_retract_db ~jobs () in
  (* size each point's countdown from a dry run: every hit the workload
     makes of the point is a crash opportunity, so the sweep covers the
     retractions' view folds too, not just the appends' *)
  let hits point =
    let fault = Fault.create () in
    ignore
      (durable_run ~mk retract_workload ~jobs:1 ~storage:(Storage.mem ()) ~fault
         ~script:ignore);
    Fault.hit_count fault point
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun (point, in_retract) ->
          (* guard against a vacuous sweep: every point must take the
             process down at least once, and the retraction's own
             points must do so inside a Retract op *)
          let fired = ref false and fired_in_retract = ref false in
          for k = 0 to hits point - 1 do
            check_crash_equivalence
              ~what:
                (Printf.sprintf "retract: %s after %d hits (jobs=%d)" point k
                   jobs)
              ~jobs ~mk
              ~on_crashed:(function
                | Some (Retract _) ->
                    fired := true;
                    fired_in_retract := true
                | Some _ -> fired := true
                | None -> ())
              retract_workload
              (fun fault -> Fault.arm fault ~after:k point)
          done;
          if not !fired then
            Alcotest.failf "crash point %s never fired (jobs=%d)" point jobs;
          if in_retract && not !fired_in_retract then
            Alcotest.failf
              "crash point %s never fired inside a Retract (jobs=%d)" point
              jobs)
        [
          ("post-retract-write", true);
          ("post-journal-write", false);
          ("view-fold", true);
        ])
    [ 1; 2; 4 ]

let test_exhaustive_torn_sweep () =
  for k = 0 to 12 do
    for keep = 0 to 40 do
      if keep mod 7 = k mod 7 (* a deterministic diagonal sample *) then
        check_crash_equivalence
          ~what:(Printf.sprintf "torn write #%d keeping %d bytes" k keep)
          fixed_workload
          (fun fault -> Fault.arm_torn_write fault ~after:k ~keep)
    done
  done

(* ---- crashes during recovery itself ---- *)

(* The parallel replay scheduler exposes its own crash point,
   ["replay-dispatch"], hit once per window of consecutive append
   records just before the window's fold chains are dispatched.  The
   property: recovery writes nothing to storage until replay is
   complete, so a crash at any window — at any parallelism degree —
   leaves the journal and checkpoint exactly as the dying process left
   them, and a subsequent plain recovery reaches the clean final state.
   A countdown past the last window must not fire at all. *)
let replay_workload =
  (* journal shape A A | C | A A | C | A A A: three append windows
     separated by clock barriers, final record replayed alone *)
  [
    Append [ (1, 100); (2, 40) ];
    Bonus [ (1, 10) ];
    Clock 1;
    Append [ (3, 75) ];
    Multi ([ (1, 5) ], [ (2, 5) ]);
    Clock 2;
    Bonus [ (3, 2); (1, 1) ];
    Append [ (4, 99) ];
    Append [ (2, 7) ];
  ]

let test_replay_dispatch_crash_sweep () =
  let states = clean_states replay_workload in
  let final = states.(Array.length states - 1) in
  List.iter
    (fun jobs ->
      for k = 0 to 4 do
        let what = Printf.sprintf "replay-dispatch after %d hits (jobs=%d)" k jobs in
        let storage = Storage.mem () in
        let fault = Fault.create () in
        let applied, crashed =
          durable_run replay_workload ~jobs ~storage ~fault ~script:(fun _ -> ())
        in
        assert ((not crashed) && applied = List.length replay_workload);
        let rfault = Fault.create () in
        Fault.arm rfault ~after:k "replay-dispatch";
        (match Durable.recover ~jobs ~storage ~fault:rfault () with
        | d, _ ->
            (* countdown outlived the journal's windows: no crash, and
               recovery reached the clean final state *)
            if Snapshot.save (Durable.db d) <> final then
              Alcotest.failf "uncrashed recovery diverged (%s)" what
        | exception Fault.Crash _ ->
            (* mid-replay crash: storage untouched, so recovering again
               (any degree; use 1 for the sequential reference) is clean *)
            let d, report = Durable.recover ~storage () in
            if report.Durable.dropped_failed then
              Alcotest.failf "re-recovery dropped a batch (%s)" what;
            if Snapshot.save (Durable.db d) <> final then
              Alcotest.failf "re-recovery after replay crash diverged (%s)" what)
      done)
    [ 1; 2; 4 ]

let test_clean_run_recovers_exactly () =
  (* no faults at all: recovery reproduces the final state, whatever the
     interleaving of checkpoints *)
  List.iter
    (fun ops -> check_crash_equivalence ~what:"no faults" ops (fun _ -> ()))
    [
      fixed_workload;
      [ Append [ (1, 1) ] ];
      [ Checkpoint; Checkpoint ];
      [];
    ]

(* ---- self-healing storage: fallback, salvage, sync retry ---- *)

(* Run a workload durably to completion (no crash script) under a
   generation/segment configuration, leaving its layout in [storage]. *)
let durable_clean_run ?(jobs = 1) ?keep_checkpoints ?segment_bytes ops ~storage
    =
  let db = mk_db ~jobs () in
  let d = Durable.attach ?keep_checkpoints ?segment_bytes ~storage db in
  List.iter (fun op -> apply ~durable:d db op) ops;
  Durable.detach d

let clone_storage (src : Storage.t) =
  let dst = Storage.mem () in
  List.iter
    (fun name ->
      match src.Storage.read name with
      | Some bytes -> dst.Storage.write name bytes
      | None -> ())
    (src.Storage.list ());
  dst

(* Checkpoint-corruption fallback: corrupt the newest generation(s) and
   recover (strict) — recovery skips each damaged generation, replays
   the correspondingly longer journal suffix from an older one, and
   still reaches the exact clean final state. *)
let test_checkpoint_fallback_sweep () =
  let states = clean_states fixed_workload in
  let final = states.(Array.length states - 1) in
  List.iter
    (fun jobs ->
      let storage = Storage.mem () in
      durable_clean_run ~keep_checkpoints:3 fixed_workload ~storage;
      let gens = List.rev (Ckpt.generations storage) (* newest first *) in
      if List.length gens < 2 then
        Alcotest.failf "workload left %d generation(s), need >= 2"
          (List.length gens);
      List.iteri
        (fun i (_, name) ->
          (* keep the oldest generation intact as the final fallback *)
          if i < List.length gens - 1 then begin
            Fault.flip_bit storage ~name ~byte:40 ~bit:3;
            let corrupted = i + 1 in
            let before = Stats.snapshot () in
            let d, report = Durable.recover ~jobs ~storage () in
            let after = Stats.snapshot () in
            if Snapshot.save (Durable.db d) <> final then
              Alcotest.failf
                "fallback diverged (jobs=%d, %d generation(s) corrupted)" jobs
                corrupted;
            Alcotest.(check int)
              (Printf.sprintf "fallbacks (jobs=%d, %d corrupted)" jobs
                 corrupted)
              corrupted report.Durable.fallbacks;
            Alcotest.(check int)
              "Checkpoint_fallback counter" corrupted
              (Stats.diff_get before after Stats.Checkpoint_fallback);
            Alcotest.(check bool) "not degraded" false report.Durable.degraded;
            Durable.detach d
          end)
        gens;
      (* every candidate damaged: strict recovery must raise typed *)
      let _, oldest = List.nth gens (List.length gens - 1) in
      Fault.flip_bit storage ~name:oldest ~byte:40 ~bit:3;
      match Durable.recover ~jobs ~storage () with
      | _ -> Alcotest.fail "strict recovery accepted all-damaged checkpoints"
      | exception Durable.Checkpoint_corrupt _ -> ())
    [ 1; 2; 4 ]

(* Segment-corruption salvage: a group-heavy workload rotated into tiny
   segments (consecutive group records land in different segments), one
   segment corrupted mid-record.  Strict recovery raises; salvage
   recovers exactly the strict recovery of a manually-cut clone — the
   maximal consistent prefix — quarantines the damaged suffix, and opens
   the database read-only. *)
let seg_workload =
  [
    Append [ (1, 100); (2, 40) ];
    Group [ ([ (2, 40) ], []); ([ (3, 75) ], [ (1, 10) ]) ];
    Clock 1;
    Bonus [ (1, 10) ];
    Group [ ([ (1, 60); (3, 51) ], [ (3, 2) ]); ([], [ (2, 8) ]) ];
    Multi ([ (3, 75) ], [ (2, 5) ]);
    Group [ ([ (4, 99) ], [ (4, 2) ]); ([ (5, 120) ], [ (5, 1) ]) ];
    Append [ (2, 7) ];
  ]

let test_segment_salvage_sweep () =
  List.iter
    (fun jobs ->
      (* discover the segment layout once (it is deterministic) *)
      let probe = Storage.mem () in
      durable_clean_run ~segment_bytes:256 seg_workload ~storage:probe;
      let sealed = List.map snd (Journal.segments probe "journal") in
      if List.length sealed < 2 then
        Alcotest.failf "workload sealed %d segment(s), need >= 2"
          (List.length sealed);
      let sources = sealed @ [ "journal" ] in
      List.iteri
        (fun si victim ->
          let what = Printf.sprintf "jobs=%d victim=%s" jobs victim in
          let storage = Storage.mem () in
          durable_clean_run ~segment_bytes:256 seg_workload ~storage;
          let contents = Option.get (storage.Storage.read victim) in
          (* flip a bit in the last record's payload: a deterministic
             CRC mismatch, never a torn-tail ambiguity *)
          Fault.flip_bit storage ~name:victim
            ~byte:(String.length contents - 3)
            ~bit:5;
          let corrupted = Option.get (storage.Storage.read victim) in
          let cut_off =
            match Journal.scan corrupted with
            | _, Journal.Damaged d -> d.Journal.offset
            | _ -> Alcotest.failf "flip did not damage a record (%s)" what
          in
          (* strict recovery refuses, typed *)
          (match Durable.recover ~jobs ~storage () with
          | _ -> Alcotest.failf "strict recovery accepted damage (%s)" what
          | exception Journal.Journal_corrupt _ -> ());
          (* the oracle: strict recovery of a clone cut at the damage *)
          let oracle =
            let clone = clone_storage storage in
            clone.Storage.truncate victim cut_off;
            List.iteri
              (fun sj name -> if sj > si then clone.Storage.remove name)
              sources;
            let d, _ = Durable.recover ~storage:clone () in
            Snapshot.save (Durable.db d)
          in
          let before = Stats.snapshot () in
          let d, report =
            Durable.recover ~jobs ~mode:Durable.Salvage ~storage ()
          in
          let after = Stats.snapshot () in
          let db = Durable.db d in
          if Snapshot.save db <> oracle then
            Alcotest.failf "salvage diverged from cut-clone oracle (%s)" what;
          Alcotest.(check bool)
            (Printf.sprintf "degraded (%s)" what)
            true report.Durable.degraded;
          Alcotest.(check bool)
            (Printf.sprintf "quarantined (%s)" what)
            true
            (report.Durable.quarantined >= 1);
          Alcotest.(check int)
            (Printf.sprintf "Salvage_quarantined counter (%s)" what)
            report.Durable.quarantined
            (Stats.diff_get before after Stats.Salvage_quarantined);
          Alcotest.(check bool)
            (Printf.sprintf "sidecar written (%s)" what)
            true
            (storage.Storage.exists (Durable.quarantine_name victim));
          (* degraded: appends rejected with the typed error … *)
          (match Db.append db "mileage" [ row (9, 9) ] with
          | _ -> Alcotest.failf "append accepted while degraded (%s)" what
          | exception Db.Read_only _ -> ());
          (* … while queries keep serving (salvaging the very first
             segment legitimately leaves the view empty) *)
          (match Db.view_contents db "balance" with
          | _ -> ()
          | exception e ->
              Alcotest.failf "degraded database stopped serving queries (%s): %s"
                what (Printexc.to_string e));
          Durable.detach d)
        sources)
    [ 1; 2; 4 ]

(* Salvage through an application failure.  The only checkpoint is
   damaged, so salvage starts from an empty database.  The journal first
   creates a chronicle and a view over it and appends to it, then
   appends to [mileage] — a chronicle only the lost checkpoint held: a
   CRC-valid, non-final record that fails to apply in the middle of a
   replay window.  Salvage recovers exactly the strict recovery of a
   clone cut at that record, counts the prefix once, and parks the
   original bytes from that record on in the journal's sidecar. *)
let test_salvage_application_failure () =
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "jobs=%d" jobs in
      let storage = Storage.mem () in
      let db = mk_db ~jobs () in
      let d = Durable.attach ~storage db in
      ignore (Db.add_chronicle db ~name:"trips" mileage_schema);
      ignore
        (Db.define_view db
           (Sca.define ~name:"trip_miles"
              ~body:(Ca.Chronicle (Db.chronicle db "trips"))
              (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ]))));
      List.iter
        (fun (chron, r) -> ignore (Db.append db chron [ row r ]))
        [
          ("trips", (1, 10));
          ("trips", (2, 20));
          ("trips", (1, 5));
          ("mileage", (1, 100)) (* record 5: fails to apply *);
          ("trips", (3, 30));
          ("mileage", (2, 40));
        ];
      Durable.detach d;
      let failing = 5 in
      Fault.flip_bit storage ~name:(Ckpt.gen_name 0) ~byte:40 ~bit:3;
      let journal = Option.get (storage.Storage.read Durable.journal_file) in
      let cut =
        snd (List.nth (fst (Journal.scan journal)) failing)
      in
      let oracle =
        let clone = clone_storage storage in
        clone.Storage.remove (Ckpt.gen_name 0);
        clone.Storage.truncate Durable.journal_file cut;
        let d, _ = Durable.recover ~jobs ~storage:clone () in
        Snapshot.save (Durable.db d)
      in
      let before = Stats.snapshot () in
      let d, report = Durable.recover ~jobs ~mode:Durable.Salvage ~storage () in
      let after = Stats.snapshot () in
      if Snapshot.save (Durable.db d) <> oracle then
        Alcotest.failf "salvage diverged from cut-clone oracle (%s)" what;
      Alcotest.(check int)
        (Printf.sprintf "report.replayed (%s)" what)
        failing report.Durable.replayed;
      Alcotest.(check int)
        (Printf.sprintf "Journal_replay counter (%s)" what)
        failing
        (Stats.diff_get before after Stats.Journal_replay);
      Alcotest.(check bool)
        (Printf.sprintf "degraded (%s)" what)
        true report.Durable.degraded;
      Alcotest.(check string)
        (Printf.sprintf "journal sidecar (%s)" what)
        (String.sub journal cut (String.length journal - cut))
        (Option.value ~default:""
           (storage.Storage.read (Durable.quarantine_name Durable.journal_file)));
      Durable.detach d)
    [ 1; 2; 4 ]

(* Transient sync failures are retried with backoff and leave no trace
   in the recovered state; exhaustion degrades instead of raising. *)
let test_sync_retry_absorbs_transients () =
  let states = clean_states fixed_workload in
  let final = states.(Array.length states - 1) in
  let storage = Storage.mem () in
  let fault = Fault.create () in
  let db = mk_db () in
  let d = Durable.attach ~fault ~storage db in
  Fault.arm_sync_failures fault ~after:2 ~fails:3;
  let before = Stats.snapshot () in
  List.iter (fun op -> apply ~durable:d db op) fixed_workload;
  let after = Stats.snapshot () in
  Alcotest.(check int) "retries counted" 3
    (Stats.diff_get before after Stats.Sync_retry);
  (match Durable.health d with
  | Durable.Healthy -> ()
  | Durable.Degraded reason ->
      Alcotest.failf "degraded after transient failures: %s" reason);
  let d2, _ = Durable.recover ~storage () in
  if Snapshot.save (Durable.db d2) <> final then
    Alcotest.fail "state diverged across retried syncs"

let test_sync_exhaustion_degrades () =
  let storage = Storage.mem () in
  let fault = Fault.create () in
  let db = mk_db () in
  let d = Durable.attach ~fault ~storage db in
  ignore (Db.append db "mileage" [ row (1, 100) ]);
  Fault.arm_sync_failures fault ~fails:10;
  (* more consecutive failures than the retry budget: the next
     journaled append exhausts it; the instance degrades mid-append
     instead of raising out of [Db.append] *)
  ignore (Db.append db "mileage" [ row (2, 40) ]);
  (match Durable.health d with
  | Durable.Degraded _ -> ()
  | Durable.Healthy -> Alcotest.fail "expected degraded after exhaustion");
  (match Db.append db "mileage" [ row (3, 1) ] with
  | _ -> Alcotest.fail "append accepted on degraded instance"
  | exception Db.Read_only _ -> ());
  Alcotest.(check bool)
    "queries serve" true
    (Db.view_contents db "balance" <> []);
  (* the write-ahead record of the degrading append reached storage
     before its syncs failed: recovery sees both appends *)
  let d2, _ = Durable.recover ~storage () in
  if Snapshot.save (Durable.db d2) <> Snapshot.save db then
    Alcotest.fail "recovered state diverged from the degraded instance"

(* ---- randomized workloads (QCheck) ---- *)

let op_gen =
  QCheck.Gen.(
    let rows = list_size (int_range 0 3) (pair (int_range 1 5) (int_range 0 120)) in
    frequency
      [
        (5, map (fun r -> Append r) rows);
        (3, map (fun r -> Bonus r) rows);
        (2, map2 (fun a b -> Multi (a, b)) rows rows);
        ( 2,
          map
            (fun parts -> Group parts)
            (list_size (int_range 1 4) (pair rows rows)) );
        (2, map (fun n -> Clock (n + 1)) (int_bound 3));
        (1, return Checkpoint);
      ])

let script_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map2
            (fun p k fault -> Fault.arm fault ~after:k p)
            (oneofl crash_points) (int_bound 18) );
        ( 1,
          map2
            (fun k keep fault -> Fault.arm_torn_write fault ~after:k ~keep)
            (int_bound 10) (int_bound 40) );
        (1, return (fun _ -> ()));
      ])

let case_gen =
  QCheck.Gen.(
    triple (list_size (int_range 1 14) op_gen) script_gen (oneofl [ 1; 2; 4 ]))

let qcheck_crash_equivalence =
  let arb =
    QCheck.make
      ~print:(fun (ops, _, jobs) ->
        Printf.sprintf "jobs=%d %s" jobs (show_ops ops))
      case_gen
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"randomized crash equivalence" arb
       (fun (ops, script, jobs) ->
         check_crash_equivalence ~what:"random" ~jobs ops script;
         true))

(* The same property over retraction-bearing workloads: the op mix
   gains Retract and the crash scripts gain the retraction's own
   write-ahead point, run against the Full-retention catalog. *)
let retract_op_gen =
  QCheck.Gen.(
    frequency [ (4, op_gen); (3, map (fun n -> Retract (n + 1)) (int_bound 2)) ])

let retract_script_gen =
  QCheck.Gen.(
    frequency
      [
        (2, script_gen);
        ( 3,
          map2
            (fun p k fault -> Fault.arm fault ~after:k p)
            (oneofl [ "post-retract-write" ]) (int_bound 6) );
      ])

let qcheck_retract_crash_equivalence =
  let arb =
    QCheck.make
      ~print:(fun (ops, _, jobs) ->
        Printf.sprintf "jobs=%d %s" jobs (show_ops ops))
      QCheck.Gen.(
        triple
          (list_size (int_range 1 14) retract_op_gen)
          retract_script_gen (oneofl [ 1; 2; 4 ]))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"randomized retract crash equivalence"
       arb
       (fun (ops, script, jobs) ->
         check_crash_equivalence ~what:"random retract" ~jobs
           ~mk:(fun jobs -> mk_retract_db ~jobs ())
           ops script;
         true))

let () =
  Alcotest.run "chronicle-fault"
    [
      ( "fault",
        [
          Alcotest.test_case "clean runs recover exactly" `Quick
            test_clean_run_recovers_exactly;
          Alcotest.test_case "exhaustive crash-point sweep" `Quick
            test_exhaustive_crash_sweep;
          Alcotest.test_case "temporal-reader crash sweep" `Quick
            test_temporal_crash_sweep;
          Alcotest.test_case "group-commit crash sweep" `Quick
            test_group_crash_sweep;
          Alcotest.test_case "key-join crash sweep" `Quick
            test_keyjoin_crash_sweep;
          Alcotest.test_case "shared key-join stage: a failing first consumer rolls back the group"
            `Quick test_keyjoin_shared_rollback;
          Alcotest.test_case "retraction crash sweep" `Quick
            test_retract_crash_sweep;
          Alcotest.test_case "exhaustive torn-write sweep" `Quick
            test_exhaustive_torn_sweep;
          Alcotest.test_case "replay-dispatch crash sweep" `Quick
            test_replay_dispatch_crash_sweep;
          Alcotest.test_case "checkpoint-corruption fallback sweep" `Quick
            test_checkpoint_fallback_sweep;
          Alcotest.test_case "segment-corruption salvage sweep" `Quick
            test_segment_salvage_sweep;
          Alcotest.test_case "salvage through an application failure" `Quick
            test_salvage_application_failure;
          Alcotest.test_case "sync retry absorbs transients" `Quick
            test_sync_retry_absorbs_transients;
          Alcotest.test_case "sync exhaustion degrades" `Quick
            test_sync_exhaustion_degrades;
          qcheck_crash_equivalence;
          qcheck_retract_crash_equivalence;
        ] );
    ]
