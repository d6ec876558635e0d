(* E15 — recovery: journal replay wall-clock for two journal shapes.

   Recovery replays runs of consecutive append records as windows, each
   one call of Db's record-and-fold step without the transaction
   bracket ([Db.replay_appends], driven by [Durable.recover]): each
   record is recorded and then folded into its affected views, in
   journal order.  Two journals with the same number of records and the
   same total number of (view × record) folds:

   - a "disjoint" journal: each batch touches its own view, 8 views
     over 8 chronicles, appended round-robin;
   - a "shared" journal: every batch touches the same single view.

   With the same work in both, the one sequential replay should take
   about the same time on either; a gap would be the cost of the wider
   catalog (more chronicles, more views to look up per record).

   Each journal holds [records] append records — long enough that one
   recovery takes tens of milliseconds.  The two journals are timed in
   alternating rounds (the order swapped every round), and each
   reports the median and quartiles of its rounds; recovered state is
   checked against the live database every round.  BENCH_E15.json
   carries the core count.

   Machine-readable evidence lands in BENCH_E15.json. *)

open Relational
open Chronicle_core
open Chronicle_durability

let schema = Schema.make [ ("acct", Value.TInt); ("miles", Value.TInt) ]
let accounts = 64
let batch_rows = 8

let row i =
  Tuple.make [ Value.Int (i mod accounts); Value.Int ((i * 7 mod 100) + 1) ]

let batch sn = List.init batch_rows (fun i -> row ((sn * batch_rows) + i))

let agg_view name c =
  Sca.define ~name ~body:(Ca.Chronicle c)
    (Sca.Group_agg
       ([ "acct" ], [ Aggregate.sum "miles" "m"; Aggregate.count_star "n" ]))

(* Both scenarios record the same number of append records and the same
   total number of view-folds; they differ only in how those folds
   distribute over views. *)
let views = 8

let build_disjoint db =
  (* [views] chronicles, one view each; appends round-robin *)
  let cs =
    List.init views (fun k ->
        let name = Printf.sprintf "c%d" k in
        let c = Db.add_chronicle db ~name schema in
        ignore (Db.define_view db (agg_view (Printf.sprintf "v%d" k) c));
        name)
  in
  fun sn -> ignore (Db.append db (List.nth cs (sn mod views)) (batch sn))

let build_shared db =
  (* one chronicle, one view: every record folds into it *)
  let c = Db.add_chronicle db ~name:"c" schema in
  ignore (Db.define_view db (agg_view "v" c));
  fun sn -> ignore (Db.append db "c" (batch sn))

let records = 10_000
let rounds = 11

let run () =
  Measure.section "E15: recovery"
    "Journal-replay wall-clock for a journal whose batches touch \
     disjoint views vs one whose batches all touch the same view.  Same \
     record count and same total fold count in both.";
  (* build each journal once: attach writes the initial (empty)
     checkpoint, then every append lands as one journal record —
     recovery replays all of them and leaves storage unchanged, so the
     same storage serves every round *)
  let journals =
    List.map
      (fun (scenario, build) ->
        let storage = Storage.mem () in
        let db = Db.create () in
        let append = build db in
        let d = Durable.attach ~sync:Journal.Sync_never ~storage db in
        for sn = 1 to records do
          append sn
        done;
        Durable.detach d;
        (scenario, storage, Snapshot.save db, ref []))
      [ ("disjoint", build_disjoint); ("shared", build_shared) ]
  in
  for round = 1 to rounds do
    List.iter
      (fun (scenario, storage, reference, samples) ->
        (* start each round from a collected heap, so the garbage of the
           round before is not collected inside this one *)
        Gc.full_major ();
        let t0 = Measure.now () in
        let d, _report = Durable.recover ~storage () in
        samples := (Measure.now () -. t0) *. 1e3 :: !samples;
        Durable.detach d;
        if not (String.equal (Snapshot.save (Durable.db d)) reference) then
          failwith (Printf.sprintf "E15: recovered state diverged (%s)" scenario))
      (if round mod 2 = 1 then journals else List.rev journals)
  done;
  let json = ref [ Measure.hardware_json () ] in
  let rows =
    List.map
      (fun (scenario, _, _, samples) ->
        let q1, median, q3 = Measure.quartiles !samples in
        json :=
          Measure.J_obj
            [
              ("op", Measure.J_str "recover");
              ("scenario", Measure.J_str scenario);
              ("records", Measure.J_int records);
              ("rounds", Measure.J_int rounds);
              ("millis_median", Measure.J_float median);
              ("millis_q1", Measure.J_float q1);
              ("millis_q3", Measure.J_float q3);
            ]
          :: !json;
        [
          scenario;
          string_of_int records;
          Measure.f2 median;
          Printf.sprintf "%s–%s" (Measure.f2 q1) (Measure.f2 q3);
        ])
      journals
  in
  Measure.print_table
    ~title:
      (Printf.sprintf "recovery replay (%d-row batches, %d views max)"
         batch_rows views)
    ~header:[ "journal"; "records"; "ms"; "q1–q3" ]
    rows;
  Measure.write_json ~file:"BENCH_E15.json" (List.rev !json)
