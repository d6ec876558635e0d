(* E21 — ℤ-weighted deltas: the cost of retraction, and the cost of
   sharing one delta core with it on the append path.

   Three questions, three phases over one Full-retention catalog:

   1. Append overhead.  Every compiled Δ-artifact maps a Z-set delta —
      a plus half and a minus half — and a retraction is the minus
      half; but an append is a plus half alone, with no slices to diff,
      and must not pay for the minus machinery.  Phase A
      times the plain append stream and asserts the differential pin
      from the inside: retract_apply, weight_cancel and
      aggregate_reprobe all stay exactly zero across the whole stream
      (the structural witness that no retraction code ran).  The
      recorded append_micros is the regression-tracking number; the
      acceptance budget against the pre-weights baseline is 2%.

   2. Invertible retraction.  COUNT/SUM-class aggregates invert in
      O(1) per group, and a retraction CALL is one write transaction
      whose undo is logical (the entries its folds touch), so its cost
      follows the rows it claims, not |C| or |V|: rows are found
      through the chronicle's occurrence index and removed by binary
      search, and an emptied group leaves an O(1) ghost slot.  Phase B
      times single-row calls against one batched call claiming every
      victim; both should stay flat as |C| grows, and the batched call
      should cost no more per row.  A chronicle builds its occurrence
      index once, in one pass over the store, on its first retraction
      (so phase A never pays for it); that build is timed and recorded
      on its own.  The recompute baseline (drop + redefine from
      retained history) divided by the batched per-row cost is the
      recorded incremental-vs-recompute gap.

   3. Extremum re-probe.  A MIN/MAX group that loses its extremum is
      recomputed from retained history — bounded, but not O(1): here
      the group key is a chronicle column, so the re-probe reads the
      group's rows through the chronicle's index on it (|C| / 64 rows
      per group).  Phase C retracts rows that are (worst case) always
      the current maximum and records the per-retract cost and the
      aggregate_reprobe count, showing the documented IM-R^k demotion
      without disturbing the invertible numbers.

   Wall-clock numbers carry the usual 1-core container caveat
   (EXPERIMENTS.md); the counter contrasts are machine-independent.
   Machine-readable evidence lands in BENCH_E21.json (recorded copy:
   bench/results/e21_retract.json). *)

open Relational
open Chronicle_core

let schema =
  Schema.make [ ("acct", Value.TInt); ("miles", Value.TInt) ]

let row acct miles = Tuple.make [ Value.Int acct; Value.Int miles ]

let n_accts = 64
let batch = 8
let reps = 7
let sizes = [ 2_000; 8_000; 20_000; 100_000 ]
let retracts = 300

let mk_db ~extremes () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage" schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "balance"; Aggregate.count_star "n" ] ))));
  if extremes then
    ignore
      (Db.define_view db
         (Sca.define ~name:"extremes"
            ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
            (Sca.Group_agg ([ "acct" ], [ Aggregate.max_ "miles" "hi" ]))));
  db

(* a fixed arithmetic stream: deterministic, all rows distinct per
   account (miles strictly increasing), so phase C can always retract
   the current maximum *)
let fill db n =
  let i = ref 0 in
  while !i < n do
    let rows =
      List.init (min batch (n - !i)) (fun k ->
          let j = !i + k in
          row (j mod n_accts) (1 + j))
    in
    ignore (Db.append db "mileage" rows);
    i := !i + List.length rows
  done

let min_over l = List.fold_left Float.min infinity l

(* A filled database whose chronicle has built its occurrence index
   (one pass over the store, on the first retraction-side lookup), and
   the time the build took: it is paid once per chronicle, so it is
   timed apart from the retractions it serves. *)
let filled ~extremes n =
  let db = mk_db ~extremes () in
  fill db n;
  Gc.full_major ();
  let t0 = Measure.now () in
  ignore (Chron.occurrences (Db.chronicle db "mileage") (row 0 0));
  (db, (Measure.now () -. t0) *. 1e6)

let run () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22 };
  Measure.section "E21: retraction cost under ℤ-weighted deltas"
    "Per-retract cost of single-row retractions against a linear \
     SUM/COUNT view (O(1) inverse) and a MAX view (bounded re-probe) \
     as retained history grows, against the full-recompute baseline \
     (drop + redefine from history).  The append phase pins the \
     weight = +1 fast path: the retraction counters stay exactly zero \
     on a pure-append stream.";
  let json = ref [] in
  let table = ref [] in
  List.iter
    (fun n ->
      (* ---- phase A: the append stream itself (the minus machinery
         present, never paid) ---- *)
      let append_means =
        List.init reps (fun _ ->
            let db = mk_db ~extremes:false () in
            Gc.full_major ();
            let before = Stats.snapshot () in
            let t0 = Measure.now () in
            fill db n;
            let elapsed = Measure.now () -. t0 in
            let after = Stats.snapshot () in
            List.iter
              (fun c ->
                if Stats.diff_get before after c <> 0 then
                  failwith
                    (Printf.sprintf "E21: %s moved on a pure-append stream"
                       (Stats.counter_name c)))
              Stats.[ Retract_apply; Weight_cancel; Aggregate_reprobe ];
            elapsed *. 1e6 /. float_of_int n)
      in
      let append_us = min_over append_means in
      (* ---- phase B: invertible retraction vs full recompute ---- *)
      let index_builds = ref [] in
      let retract_means =
        List.init reps (fun _ ->
            let db, build_us = filled ~extremes:false n in
            index_builds := build_us :: !index_builds;
            let t0 = Measure.now () in
            for j = 0 to retracts - 1 do
              (* spread claims across the history: row j of account
                 j mod n_accts, always present exactly once *)
              ignore (Db.retract db "mileage" [ row (j mod n_accts) (1 + j) ])
            done;
            (Measure.now () -. t0) *. 1e6 /. float_of_int retracts)
      in
      let retract_us = min_over retract_means in
      let index_us = min_over !index_builds in
      let batched_means =
        List.init reps (fun _ ->
            let db, _ = filled ~extremes:false n in
            let victims = List.init retracts (fun j -> row (j mod n_accts) (1 + j)) in
            let t0 = Measure.now () in
            ignore (Db.retract db "mileage" victims);
            (Measure.now () -. t0) *. 1e6 /. float_of_int retracts)
      in
      let batched_us = min_over batched_means in
      let recompute_means =
        List.init reps (fun _ ->
            let db = mk_db ~extremes:false () in
            fill db n;
            Gc.full_major ();
            let t0 = Measure.now () in
            Db.drop_view db "balance";
            ignore
              (Db.define_view db
                 (Sca.define ~name:"balance"
                    ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
                    (Sca.Group_agg
                       ( [ "acct" ],
                         [
                           Aggregate.sum "miles" "balance";
                           Aggregate.count_star "n";
                         ] ))));
            (Measure.now () -. t0) *. 1e6)
      in
      let recompute_us = min_over recompute_means in
      (* ---- phase C: always retract the current maximum ---- *)
      let reprobes = ref 0 in
      let reprobe_means =
        List.init reps (fun _ ->
            let db, _ = filled ~extremes:true n in
            let before = Stats.snapshot () in
            let t0 = Measure.now () in
            for j = 0 to retracts - 1 do
              (* the stream's miles are increasing, so the latest
                 surviving row of the account is its maximum *)
              let k = n - 1 - j in
              ignore (Db.retract db "mileage" [ row (k mod n_accts) (1 + k) ])
            done;
            let elapsed = Measure.now () -. t0 in
            let after = Stats.snapshot () in
            reprobes := Stats.diff_get before after Stats.Aggregate_reprobe;
            elapsed *. 1e6 /. float_of_int retracts)
      in
      let reprobe_us = min_over reprobe_means in
      let gap = recompute_us /. batched_us in
      Measure.note
        "|C|=%d: append %.1f us, occurrence index %.0f us once, retract %.1f \
         us/call, batched %.1f us/row, recompute %.0f us (gap %.0fx), \
         max-reprobe %.1f us (%d re-probes)"
        n append_us index_us retract_us batched_us recompute_us gap reprobe_us
        !reprobes;
      json :=
        Measure.J_obj
          [
            ("history", Measure.J_int n);
            ("accounts", Measure.J_int n_accts);
            ("retracts", Measure.J_int retracts);
            ("append_micros_per_row", Measure.J_float append_us);
            ("occurrence_index_micros", Measure.J_float index_us);
            ("retract_micros_single_call", Measure.J_float retract_us);
            ("retract_micros_batched_row", Measure.J_float batched_us);
            ("recompute_micros", Measure.J_float recompute_us);
            ("recompute_over_batched_retract", Measure.J_float gap);
            ("retract_micros_max_reprobe", Measure.J_float reprobe_us);
            ("aggregate_reprobes", Measure.J_int !reprobes);
            ("pure_append_counters", Measure.J_str "all-zero");
          ]
        :: !json;
      table :=
        [
          string_of_int n;
          Measure.f1 append_us;
          Measure.f1 index_us;
          Measure.f1 retract_us;
          Measure.f1 batched_us;
          Measure.f1 recompute_us;
          Measure.f1 gap;
          Measure.f1 reprobe_us;
          string_of_int !reprobes;
        ]
        :: !table)
    sizes;
  Measure.print_table
    ~title:
      (Printf.sprintf
         "single-row retraction vs full recompute (%d retracts per point)"
         retracts)
    ~header:
      [
        "|C|"; "append us"; "index us"; "call us"; "batched us";
        "recompute us"; "gap x";
        "max-reprobe us"; "reprobes";
      ]
    (List.rev !table);
  Measure.write_json ~file:"BENCH_E21.json"
    (Measure.hardware_json () :: List.rev !json)
