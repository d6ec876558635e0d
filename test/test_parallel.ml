(* Parallel maintenance is transparent: for any view set and any batch
   sequence, running the database at jobs ∈ {2,4,8} leaves every
   persistent view in exactly the state the sequential run produces —
   including insertion order (each view is folded wholly by one task)
   — and performs exactly the same maintenance work (the economics
   counters agree).  This is the property that lets every layer above
   [Db] ignore the parallelism entirely. *)

open Relational
open Chronicle_core
open Util

(* ---- scenario description (pure data, so one scenario can be run
   under several degrees) ---- *)

type vspec = {
  vname : string;
  chron : int; (* 0 or 1 *)
  guard : int option; (* Some a: SELECT acct = a above the chronicle *)
  early : bool; (* defined before any appends (Δ-only) or after some
                   history (exercises initial materialization) *)
}

type step =
  | Append of int * (int * int) list (* chron, (acct, miles) rows *)
  | Append_multi of (int * (int * int) list) list

type scenario = { views : vspec list; pre : step list; post : step list }

let schema = Schema.make [ ("acct", Value.TInt); ("miles", Value.TInt) ]
let row (acct, miles) = tup [ vi acct; vi miles ]

(* Watched economics counters: the work a maintenance pass performs.
   (Plan counters are excluded on purpose: registration warms caches
   identically at every degree, but materialization re-compiles
   per-call.) *)
let watched = Stats.[ Tuple_write; Agg_step; Group_lookup; Index_probe ]

type outcome = {
  contents : (string * Tuple.t list) list; (* per view, in store order *)
  work : int list; (* watched counter deltas *)
}

let run_scenario ~jobs s =
  let db = Db.create ~jobs () in
  (* full retention so late view definitions can materialize from
     history *)
  let chrons =
    [|
      Db.add_chronicle db ~retention:Chron.Full ~name:"c0" schema;
      Db.add_chronicle db ~retention:Chron.Full ~name:"c1" schema;
    |]
  in
  let define v =
    let base = Ca.Chronicle chrons.(v.chron) in
    let body =
      match v.guard with
      | None -> base
      | Some a -> Ca.Select (Predicate.("acct" =% vi a), base)
    in
    ignore
      (Db.define_view db
         (Sca.define ~name:v.vname ~body
            (Sca.Group_agg
               ( [ "acct" ],
                 [ Aggregate.sum "miles" "m"; Aggregate.count_star "n" ] ))))
  in
  let apply = function
    | Append (c, rows) ->
        ignore (Db.append db (Chron.name chrons.(c)) (List.map row rows))
    | Append_multi parts ->
        ignore
          (Db.append_multi db
             (List.map
                (fun (c, rows) -> (Chron.name chrons.(c), List.map row rows))
                parts))
  in
  List.iter define (List.filter (fun v -> v.early) s.views);
  List.iter apply s.pre;
  let before = Stats.snapshot () in
  List.iter define (List.filter (fun v -> not v.early) s.views);
  List.iter apply s.post;
  let after = Stats.snapshot () in
  {
    contents =
      List.map (fun v -> (v.vname, Db.view_contents db v.vname)) s.views;
    work = List.map (Stats.diff_get before after) watched;
  }

(* ---- generators ---- *)

let gen_rows =
  QCheck.Gen.(
    list_size (1 -- 5) (pair (1 -- 6) (0 -- 100)))

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun (c, rows) -> Append (c, rows)) (pair (0 -- 1) gen_rows));
        ( 1,
          map
            (fun (r0, r1) -> Append_multi [ (0, r0); (1, r1) ])
            (pair gen_rows gen_rows) );
      ])

let gen_vspec i =
  QCheck.Gen.(
    map
      (fun (chron, guard, early) ->
        { vname = Printf.sprintf "v%d" i; chron; guard; early })
      (triple (0 -- 1) (opt (1 -- 6)) bool))

let gen_scenario =
  QCheck.Gen.(
    (3 -- 10) >>= fun nviews ->
    let rec specs i =
      if i >= nviews then return []
      else
        gen_vspec i >>= fun v ->
        specs (i + 1) >>= fun rest -> return (v :: rest)
    in
    triple (specs 0) (list_size (1 -- 6) gen_step) (list_size (1 -- 8) gen_step)
    >>= fun (views, pre, post) -> return { views; pre; post })

let print_scenario s =
  let pr_step = function
    | Append (c, rows) ->
        Printf.sprintf "append c%d [%s]" c
          (String.concat "; "
             (List.map (fun (a, m) -> Printf.sprintf "(%d,%d)" a m) rows))
    | Append_multi parts ->
        Printf.sprintf "append_multi [%s]"
          (String.concat " | "
             (List.map
                (fun (c, rows) ->
                  Printf.sprintf "c%d:%d rows" c (List.length rows))
                parts))
  in
  Printf.sprintf "views=[%s]\npre=[%s]\npost=[%s]"
    (String.concat "; "
       (List.map
          (fun v ->
            Printf.sprintf "%s(c%d,%s,%s)" v.vname v.chron
              (match v.guard with None -> "_" | Some a -> string_of_int a)
              (if v.early then "early" else "late"))
          s.views))
    (String.concat "; " (List.map pr_step s.pre))
    (String.concat "; " (List.map pr_step s.post))

let scenario_arb = QCheck.make ~print:print_scenario gen_scenario

(* ---- the property ---- *)

let same_outcome seq par =
  List.for_all2
    (fun (n1, t1) (n2, t2) ->
      String.equal n1 n2 && List.equal Tuple.equal t1 t2)
    seq.contents par.contents
  && List.equal Int.equal seq.work par.work

let prop_parallel_equals_sequential s =
  let seq = run_scenario ~jobs:1 s in
  List.for_all
    (fun jobs ->
      let par = run_scenario ~jobs s in
      if not (same_outcome seq par) then
        QCheck.Test.fail_reportf
          "jobs=%d diverged from sequential:@.seq work=%s par work=%s" jobs
          (String.concat "," (List.map string_of_int seq.work))
          (String.concat "," (List.map string_of_int par.work))
      else true)
    [ 2; 4; 8 ]

(* ---- a few directed cases on top of the property ---- *)

(* Initial materialization is sequential at every degree: a view
   defined over a long retained history at jobs = 4 reads exactly what
   it reads at jobs = 1. *)
let test_parallel_materialization () =
  let mk jobs =
    let db = Db.create ~jobs () in
    let c = Db.add_chronicle db ~retention:Chron.Full ~name:"c" schema in
    for i = 1 to 500 do
      ignore (Db.append db (Chron.name c) [ row (i mod 17, i) ])
    done;
    ignore
      (Db.define_view db
         (Sca.define ~name:"v" ~body:(Ca.Chronicle c)
            (Sca.Group_agg
               ( [ "acct" ],
                 [ Aggregate.sum "miles" "m"; Aggregate.count_star "n" ] ))));
    Db.view_contents db "v"
  in
  let seq = mk 1 and par = mk 4 in
  check_int "same cardinality" (List.length seq) (List.length par);
  check_bool "identical contents and order" true
    (List.equal Tuple.equal seq par)

(* A failing fold at jobs = 4 rolls back every view, exactly as the
   sequential path does. *)
let test_parallel_rollback () =
  let db = Db.create ~jobs:4 () in
  let c = Db.add_chronicle db ~name:"c" schema in
  for i = 0 to 7 do
    ignore
      (Db.define_view db
         (Sca.define ~name:(Printf.sprintf "v%d" i) ~body:(Ca.Chronicle c)
            (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ]))))
  done;
  ignore (Db.append db "c" [ row (1, 10) ]);
  let before =
    List.map (fun v -> Db.view_contents db (View.name v)) (Db.views db)
  in
  let boom = ref true in
  Db.set_fold_probe db
    (Some
       (fun ~view ~sn:_ ->
         if !boom && String.equal view "v5" then failwith "injected"));
  check_raises_any "fold failure propagates" (fun () ->
      Db.append db "c" [ row (2, 20) ]);
  boom := false;
  Db.set_fold_probe db None;
  let after =
    List.map (fun v -> Db.view_contents db (View.name v)) (Db.views db)
  in
  check_bool "all views rolled back" true
    (List.for_all2 (List.equal Tuple.equal) before after);
  (* and the database still works *)
  ignore (Db.append db "c" [ row (2, 20) ]);
  check_int "post-rollback append maintained" 2
    (List.length (Db.view_contents db "v0"))

(* ---- parallel journal replay ----

   Run a random scenario live under write-ahead journaling, then
   recover the same storage at several degrees: the recovered snapshot
   must be byte-identical across jobs ∈ {1,2,4,8} and identical to the
   live database's snapshot. *)

open Chronicle_durability

let run_scenario_durable s =
  let st = Storage.mem () in
  let db = Db.create () in
  let d = Durable.attach ~sync:Journal.Sync_never ~storage:st db in
  let chrons =
    [|
      Db.add_chronicle db ~retention:Chron.Full ~name:"c0" schema;
      Db.add_chronicle db ~retention:Chron.Full ~name:"c1" schema;
    |]
  in
  let define v =
    let base = Ca.Chronicle chrons.(v.chron) in
    let body =
      match v.guard with
      | None -> base
      | Some a -> Ca.Select (Predicate.("acct" =% vi a), base)
    in
    ignore
      (Db.define_view db
         (Sca.define ~name:v.vname ~body
            (Sca.Group_agg
               ( [ "acct" ],
                 [ Aggregate.sum "miles" "m"; Aggregate.count_star "n" ] ))))
  in
  let apply = function
    | Append (c, rows) ->
        ignore (Db.append db (Chron.name chrons.(c)) (List.map row rows))
    | Append_multi parts ->
        ignore
          (Db.append_multi db
             (List.map
                (fun (c, rows) -> (Chron.name chrons.(c), List.map row rows))
                parts))
  in
  List.iter define (List.filter (fun v -> v.early) s.views);
  List.iter apply s.pre;
  List.iter define (List.filter (fun v -> not v.early) s.views);
  List.iter apply s.post;
  Durable.detach d;
  (st, Snapshot.save db)

let prop_replay_parallel_equals_sequential s =
  let st, live = run_scenario_durable s in
  let recovered jobs =
    let t, _report = Durable.recover ~jobs ~storage:st () in
    Snapshot.save (Durable.db t)
  in
  let reference = recovered 1 in
  if not (String.equal reference live) then
    QCheck.Test.fail_reportf "sequential recovery diverged from the live state"
  else
    List.for_all
      (fun jobs ->
        if String.equal (recovered jobs) reference then true
        else
          QCheck.Test.fail_reportf
            "recovery at jobs=%d diverged from sequential replay" jobs)
      [ 2; 4; 8 ]

(* A history-reading view (non-CA cross product) forces the replay
   scheduler's fold barrier: every record flushes before the next one
   is recorded, and the recovered state still matches sequential
   replay at every degree. *)
let test_replay_history_barrier () =
  let st = Storage.mem () in
  let db = Db.create () in
  ignore (Durable.attach ~sync:Journal.Sync_never ~storage:st db);
  let c0 = Db.add_chronicle db ~retention:(Chron.Window 64) ~name:"c0" schema in
  let c1 = Db.add_chronicle db ~retention:(Chron.Window 64) ~name:"c1" schema in
  ignore
    (Db.define_view db ~tier_limit:Classify.IM_poly_c
       (Sca.define ~allow_non_ca:true ~name:"cross"
          ~body:(Ca.CrossChron (Ca.Chronicle c0, Ca.Chronicle c1))
          (Sca.Group_agg ([ "acct" ], [ Aggregate.count_star "n" ]))));
  ignore
    (Db.define_view db
       (Sca.define ~name:"plain" ~body:(Ca.Chronicle c0)
          (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "miles" "m" ]))));
  for i = 1 to 12 do
    ignore (Db.append db (if i mod 3 = 0 then "c1" else "c0") [ row (i mod 4, i) ])
  done;
  let live = Snapshot.save db in
  let recovered jobs =
    let t, report = Durable.recover ~jobs ~storage:st () in
    check_bool "replayed something" true (report.Durable.replayed > 0);
    Snapshot.save (Durable.db t)
  in
  let seq = recovered 1 in
  check_bool "sequential recovery = live" true (String.equal seq live);
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d recovery = sequential" jobs)
        true
        (String.equal (recovered jobs) seq))
    [ 2; 4; 8 ]

(* ---- Stats snapshots are torn-read-safe under parallel bumps ----

   A dedicated domain snapshots in a tight loop while a jobs = 4
   database maintains many views; every counter must be pointwise
   non-decreasing across successive snapshots (each cell is read with
   exactly one atomic load — no torn or phantom values). *)
let test_stats_snapshot_monotone () =
  let db = Db.create ~jobs:4 () in
  let c = Db.add_chronicle db ~name:"c" schema in
  for i = 0 to 11 do
    ignore
      (Db.define_view db
         (Sca.define ~name:(Printf.sprintf "v%d" i) ~body:(Ca.Chronicle c)
            (Sca.Group_agg
               ([ "acct" ], [ Aggregate.sum "miles" "m"; Aggregate.count_star "n" ]))))
  done;
  let stop = Atomic.make false in
  let watcher =
    Domain.spawn (fun () ->
        let bad = ref None in
        let snaps = ref 0 in
        let prev = ref (Stats.snapshot ()) in
        while not (Atomic.get stop) do
          let s = Stats.snapshot () in
          incr snaps;
          List.iter
            (fun cnt ->
              let d = Stats.diff_get !prev s cnt in
              if d < 0 && !bad = None then
                bad := Some (Stats.counter_name cnt, d))
            Stats.all;
          prev := s
        done;
        (!snaps, !bad))
  in
  for i = 1 to 400 do
    ignore (Db.append db "c" [ row (i mod 7, i); row ((i + 3) mod 7, i) ])
  done;
  Atomic.set stop true;
  let snaps, bad = Domain.join watcher in
  check_bool "watcher actually raced the appends" true (snaps > 0);
  match bad with
  | None -> ()
  | Some (name, d) ->
      Alcotest.failf "counter %s went backwards across snapshots (%d)" name d

let suite =
  [
    qtest ~count:120 "parallel ≡ sequential (state and work)" scenario_arb
      prop_parallel_equals_sequential;
    test "parallel initial materialization" test_parallel_materialization;
    test "parallel fold failure rolls back all views" test_parallel_rollback;
    qtest ~count:60 "parallel replay ≡ sequential recovery" scenario_arb
      prop_replay_parallel_equals_sequential;
    test "replay fold barrier for history-reading views"
      test_replay_history_barrier;
    test "stats snapshots are monotone under parallel bumps"
      test_stats_snapshot_monotone;
  ]
