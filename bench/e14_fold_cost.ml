(* E14 — per-view fold cost vs view count, on the one sequential path.

   Every 8-row batch appended to one chronicle is folded into V
   identical unguarded SCA views (SUM and COUNT( * ) by one of 64
   accounts), so every append affects all of them.  The cost reported
   is wall-clock nanoseconds per (view × row): a round's elapsed time
   over [batches × V × 8].  A fold whose cost did not depend on the
   view count would read flat across V; each view today hashes the same
   key into its own group table, so the growth with V is the baseline
   that shared group tables (ROADMAP item 7) are to flatten.

   The view counts are timed in alternating rounds over one database
   each (the order reversed every round), and each reports the median
   and quartiles of its rounds.  The recorded JSON carries the core
   count.

   Machine-readable evidence lands in BENCH_E14.json. *)

open Relational
open Chronicle_core

let schema = Schema.make [ ("acct", Value.TInt); ("miles", Value.TInt) ]
let accounts = 64

let row i =
  Tuple.make [ Value.Int (i mod accounts); Value.Int ((i * 7 mod 100) + 1) ]

let batch_rows = 8
let batch sn = List.init batch_rows (fun i -> row ((sn * batch_rows) + i))

let mk_db ~views =
  let db = Db.create () in
  let c = Db.add_chronicle db ~name:"c" schema in
  for v = 0 to views - 1 do
    ignore
      (Db.define_view db
         (Sca.define
            ~name:(Printf.sprintf "v%03d" v)
            ~body:(Ca.Chronicle c)
            (Sca.Group_agg
               ( [ "acct" ],
                 [ Aggregate.sum "miles" "m"; Aggregate.count_star "n" ] ))))
  done;
  db

let rounds = 15
let batches = 64

let run () =
  Measure.section "E14: per-view fold cost vs view count"
    "Nanoseconds per (view × row) when every 8-row append is folded into \
     V identical SUM/COUNT(*) views; view counts timed in alternating \
     rounds, median and quartiles per count.";
  Measure.note "hardware: %d recommended domain(s)" (Domain.recommended_domain_count ());
  let counts = [ 64; 256; 512 ] in
  let dbs =
    List.map
      (fun views ->
        let db = mk_db ~views in
        ignore (Db.append db "c" (batch 0)) (* warm plans and stores *);
        (views, db, ref 1, ref []))
      counts
  in
  for round = 1 to rounds do
    List.iter
      (fun (views, db, sn, samples) ->
        let t0 = Measure.now () in
        for _ = 1 to batches do
          ignore (Db.append db "c" (batch !sn));
          incr sn
        done;
        let elapsed = Measure.now () -. t0 in
        samples := (elapsed *. 1e9 /. float_of_int (batches * views * batch_rows)) :: !samples)
      (if round mod 2 = 1 then dbs else List.rev dbs)
  done;
  let json = ref [ Measure.hardware_json () ] in
  let rows =
    List.map
      (fun (views, _, _, samples) ->
        let q1, median, q3 = Measure.quartiles !samples in
        json :=
          Measure.J_obj
            [
              ("op", Measure.J_str "append");
              ("views", Measure.J_int views);
              ("rows_per_batch", Measure.J_int batch_rows);
              ("rounds", Measure.J_int rounds);
              ("ns_per_view_row_median", Measure.J_float median);
              ("ns_per_view_row_q1", Measure.J_float q1);
              ("ns_per_view_row_q3", Measure.J_float q3);
            ]
          :: !json;
        [
          string_of_int views;
          Measure.f1 median;
          Printf.sprintf "%s–%s" (Measure.f1 q1) (Measure.f1 q3);
        ])
      dbs
  in
  Measure.print_table
    ~title:
      (Printf.sprintf "fold cost (%d-batch rounds, %d-row batches)" batches batch_rows)
    ~header:[ "views"; "ns/(view×row)"; "q1–q3" ]
    rows;
  Measure.write_json ~file:"BENCH_E14.json" (List.rev !json)
