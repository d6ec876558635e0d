(* E15 — parallel recovery: journal replay wall-clock vs domain count.

   Recovery replays runs of consecutive append records as windows, each
   one call of Db's record-and-fold step without the transaction
   bracket ([Db.replay_appends], driven by [Durable.recover]): the
   records are recorded sequentially (watermarks, retention rings and
   the affected-view computation are order-sensitive and cheap), then
   each affected view's Δ-folds are chained in record order and the
   per-view chains — the expensive part — are handed to the domain
   pool.  The available parallelism is therefore
   the number of *independent view chains* in a window, not the number
   of records:

   - a "disjoint" journal (each batch touches its own view) splits into
     as many chains as views, and replay scales with the domain count;
   - a "shared" journal (every batch touches the same single view) is
     one chain — the sequential critical path — and extra domains buy
     nothing.

   Both journals carry the same number of (view × record) fold pairs,
   so the contrast isolates scheduling, not work.  jobs = 1 runs the
   pool inline and is the reference; recovered state is byte-identical
   at every degree (asserted here, and property-tested in
   test_parallel.ml).

   Each journal holds [records] append records — long enough that one
   recovery takes tens of milliseconds.  The degrees are timed in
   alternating rounds over the same storage (the order swapped every
   round), and each reports the median and quartiles of its rounds: a
   speedup counts only where it exceeds the spread.  The sweep stops
   at 2 domains, because a degree above the host's cores measures
   oversubscription, not scaling; BENCH_E15.json carries the core
   count.

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
   distribute over per-view chains. *)
let chains = 8

let build_disjoint db =
  (* [chains] chronicles, one view each; appends round-robin *)
  let cs =
    List.init chains (fun k ->
        let name = Printf.sprintf "c%d" k in
        let c = Db.add_chronicle db ~name schema in
        ignore (Db.define_view db (agg_view (Printf.sprintf "v%d" k) c));
        name)
  in
  fun sn -> ignore (Db.append db (List.nth cs (sn mod chains)) (batch sn))

let build_shared db =
  (* one chronicle, one view: every record extends the same chain *)
  let c = Db.add_chronicle db ~name:"c" schema in
  ignore (Db.define_view db (agg_view "v" c));
  fun sn -> ignore (Db.append db "c" (batch sn))

let degrees () =
  let limit =
    if !Measure.jobs_limit = 0 then Domain.recommended_domain_count ()
    else !Measure.jobs_limit
  in
  List.filter (fun j -> j <= max 1 limit) [ 1; 2 ]

let records = 10_000
let rounds = 11

let run () =
  Measure.section "E15: parallel recovery"
    "Journal-replay wall-clock as the recovery degree grows, for a \
     journal whose batches touch disjoint views (as many fold chains \
     as views) vs one whose batches all touch the same view (a single \
     sequential chain).  Same record count and same total fold count \
     in both.";
  let json = ref [ Measure.hardware_json () ] in
  let rows =
    List.concat_map
      (fun (scenario, build) ->
        (* build the journal once: attach writes the initial (empty)
           checkpoint, then every append lands as one journal record —
           recovery replays all of them and leaves storage unchanged,
           so the same storage serves every round at every degree *)
        let storage = Storage.mem () in
        let db = Db.create () in
        let append = build db in
        let d = Durable.attach ~sync:Journal.Sync_never ~storage db in
        for sn = 1 to records do
          append sn
        done;
        Durable.detach d;
        let reference = Snapshot.save db in
        let degrees = List.map (fun jobs -> (jobs, ref [])) (degrees ()) in
        for round = 1 to rounds do
          List.iter
            (fun (jobs, samples) ->
              (* start each round from a collected heap, so the garbage
                 of the round before is not collected inside this one *)
              Gc.full_major ();
              let t0 = Measure.now () in
              let d, _report = Durable.recover ~jobs ~storage () in
              samples := (Measure.now () -. t0) *. 1e3 :: !samples;
              Durable.detach d;
              if not (String.equal (Snapshot.save (Durable.db d)) reference) then
                failwith
                  (Printf.sprintf "E15: recovered state diverged (%s, jobs=%d)"
                     scenario jobs))
            (if round mod 2 = 1 then degrees else List.rev degrees)
        done;
        let base = ref 0. in
        List.map
          (fun (jobs, samples) ->
            let q1, median, q3 = Measure.quartiles !samples in
            if jobs = 1 then base := median;
            let speedup = !base /. median in
            json :=
              Measure.J_obj
                [
                  ("op", Measure.J_str "recover");
                  ("scenario", Measure.J_str scenario);
                  ("records", Measure.J_int records);
                  ("jobs", Measure.J_int jobs);
                  ("rounds", Measure.J_int rounds);
                  ("millis_median", Measure.J_float median);
                  ("millis_q1", Measure.J_float q1);
                  ("millis_q3", Measure.J_float q3);
                  ("speedup_vs_1", Measure.J_float speedup);
                ]
              :: !json;
            [
              scenario;
              string_of_int records;
              string_of_int jobs;
              Measure.f2 median;
              Printf.sprintf "%s–%s" (Measure.f2 q1) (Measure.f2 q3);
              Measure.f2 speedup;
            ])
          degrees)
      [ ("disjoint", build_disjoint); ("shared", build_shared) ]
  in
  Measure.print_table
    ~title:
      (Printf.sprintf "recovery replay (%d-row batches, %d views max)"
         batch_rows chains)
    ~header:[ "journal"; "records"; "jobs"; "ms"; "q1–q3"; "speedup" ]
    rows;
  Measure.write_json ~file:"BENCH_E15.json" (List.rev !json)
