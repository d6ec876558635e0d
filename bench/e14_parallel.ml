(* E14 — multicore Δ-maintenance: batch throughput vs domain count.

   The transaction path folds the Δ of each affected view
   independently (no view reads another view — the §5.2 independence
   that makes "identify affected views" worthwhile also makes them
   embarrassingly parallel).  This experiment measures appends/second
   through the full path with V unguarded SCA views — every append
   affects all of them — at maintenance degree (--jobs) 1 and 2.

   The degrees are timed in alternating rounds over one database each
   (the order swapped every round), and each degree reports the median
   and quartiles of its rounds: a speedup counts only where it exceeds
   the spread.  The sweep stops at 2 domains, because a degree above
   the host's cores measures oversubscription, not scaling; the
   recorded JSON carries the core count.  jobs=1 is the historical
   sequential path (no pool, no task handoff).

   Machine-readable evidence lands in BENCH_E14.json. *)

open Relational
open Chronicle_core

let schema = Schema.make [ ("acct", Value.TInt); ("miles", Value.TInt) ]
let accounts = 64

let row i =
  Tuple.make [ Value.Int (i mod accounts); Value.Int ((i * 7 mod 100) + 1) ]

let batch_rows = 8
let batch sn = List.init batch_rows (fun i -> row ((sn * batch_rows) + i))

let mk_db ~jobs ~views =
  let db = Db.create ~jobs () in
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

let degrees () =
  let limit =
    if !Measure.jobs_limit = 0 then Domain.recommended_domain_count ()
    else !Measure.jobs_limit
  in
  List.filter (fun j -> j <= max 1 limit) [ 1; 2 ]

let rounds = 15
let batches = 64

let run () =
  Measure.section "E14: parallel view maintenance"
    "Appends/second with V persistent views, every append affecting all \
     of them, as the Δ-folds are partitioned across domains; degrees \
     timed in alternating rounds, median and quartiles per degree.";
  let cores = Domain.recommended_domain_count () in
  Measure.note "hardware: %d recommended domain(s)" cores;
  let json = ref [ Measure.hardware_json () ] in
  let rows =
    List.concat_map
      (fun views ->
        let dbs =
          List.map
            (fun jobs ->
              let db = mk_db ~jobs ~views in
              ignore (Db.append db "c" (batch 0)) (* warm plans and stores *);
              (jobs, db, ref 1, ref []))
            (degrees ())
        in
        for round = 1 to rounds do
          List.iter
            (fun (_, db, sn, samples) ->
              let t0 = Measure.now () in
              for _ = 1 to batches do
                ignore (Db.append db "c" (batch !sn));
                incr sn
              done;
              samples := (float_of_int batches /. (Measure.now () -. t0)) :: !samples)
            (if round mod 2 = 1 then dbs else List.rev dbs)
        done;
        let base = ref 0. in
        List.map
          (fun (jobs, _, _, samples) ->
            let q1, median, q3 = Measure.quartiles !samples in
            if jobs = 1 then base := median;
            let speedup = median /. !base in
            json :=
              Measure.J_obj
                [
                  ("op", Measure.J_str "append");
                  ("views", Measure.J_int views);
                  ("jobs", Measure.J_int jobs);
                  ("rounds", Measure.J_int rounds);
                  ("batches_per_sec_median", Measure.J_float median);
                  ("batches_per_sec_q1", Measure.J_float q1);
                  ("batches_per_sec_q3", Measure.J_float q3);
                  ("speedup_vs_1", Measure.J_float speedup);
                ]
              :: !json;
            [
              string_of_int views;
              string_of_int jobs;
              Measure.f1 median;
              Printf.sprintf "%s–%s" (Measure.f1 q1) (Measure.f1 q3);
              Measure.f2 speedup;
            ])
          dbs)
      [ 64; 256; 512 ]
  in
  Measure.print_table
    ~title:
      (Printf.sprintf "batch maintenance (%d-batch rounds, 8-row batches)"
         batches)
    ~header:[ "views"; "jobs"; "batches/s"; "q1–q3"; "speedup" ]
    rows;
  Measure.write_json ~file:"BENCH_E14.json" (List.rev !json)
