(* E17 — operational: group commit.

   The staging queue (Chronicle_durability.Group) drains many staged
   appends into ONE journal record and ONE sync.  Under sync=always on
   a real disk the fsync dominates the append path, so amortizing it
   over a group of N is the entire throughput story: appends/sec should
   scale with N until the fold work (which is per-append either way)
   takes over.  Under sync=never the journal write is cheap and group
   commit is expected to be roughly neutral — the point of the sweep is
   that batch=1 stays within noise of the plain per-append path, which
   is also what the differential tests pin down byte-for-byte.

   Group commit amortizes *synchronous durability*, not fold CPU.
   Machine-readable evidence lands in BENCH_E17.json. *)

open Relational
open Chronicle_core
open Chronicle_durability
module Staging = Chronicle_durability.Group

let schema = Schema.make [ ("acct", Value.TInt); ("miles", Value.TInt) ]

let mk_db () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"mileage" schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
          (Sca.Group_agg
             ( [ "acct" ],
               [ Aggregate.sum "miles" "total"; Aggregate.count_star "n" ] ))));
  db

let one_row i =
  Tuple.make [ Value.Int (i mod 256); Value.Int ((i * 7 mod 100) + 1) ]

let with_temp_dir f =
  let dir = Filename.temp_file "chronicle_e17" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let batches = [ 1; 8; 64; 256 ]

(* Amortized cost of one staged append at [batch]: stage rows one at a
   time; every [batch]-th stage drains the queue as one group (one
   journal record, one sync).  The trailing partial group is flushed
   inside the timed region so every staged append's commit is paid. *)
let staged_run ~sync ~batch ~times dir =
  let db = mk_db () in
  let d = Durable.attach ~sync ~storage:(Storage.disk ~dir) db in
  let st = Staging.create ~batch db in
  let r =
    Measure.per_op ~times (fun i ->
        ignore (Staging.stage st [ ("mileage", [ one_row i ]) ]);
        if i = times - 1 then Staging.flush st)
  in
  Durable.detach d;
  r

let run () =
  Measure.section "E17: group commit — batched appends, one sync per group"
    "Staged appends drain into one journal record + one sync per group \
     of N.  Under sync=always the fsync dominates, so appends/sec \
     scales with N; under sync=never grouping is near-neutral.  \
     Single-threaded: this amortizes synchronous durability, \
     not fold CPU.";
  let json = ref [] in
  let rows = ref [] in
  let baselines = Hashtbl.create 4 in
  List.iter
    (fun (sync, label, times) ->
      List.iter
        (fun batch ->
          let r =
            with_temp_dir (fun dir -> staged_run ~sync ~batch ~times dir)
          in
          let per_sec = 1e6 /. r.Measure.micros in
          if batch = 1 then Hashtbl.replace baselines label per_sec;
          let speedup = per_sec /. Hashtbl.find baselines label in
          rows :=
            [
              label;
              Measure.i batch;
              Measure.f2 r.Measure.micros;
              Measure.f1 per_sec;
              Measure.f2 speedup ^ "x";
            ]
            :: !rows;
          json :=
            Measure.J_obj
              [
                ("op", Measure.J_str ("staged-append/" ^ label));
                ("batch", Measure.J_int batch);
                ("n", Measure.J_int times);
                ("micros_per_append", Measure.J_float r.Measure.micros);
                ("appends_per_sec", Measure.J_float per_sec);
                ("speedup_vs_batch1", Measure.J_float speedup);
              ]
            :: !json)
        batches)
    [
      (Journal.Sync_always, "disk,sync=always", 512);
      (Journal.Sync_every 64, "disk,sync=every:64", 1024);
      (Journal.Sync_never, "disk,sync=never", 2048);
    ];
  Measure.print_table
    ~title:"E17  appends/sec vs group size (disk journal)"
    ~header:[ "storage"; "batch"; "us/append"; "appends/s"; "vs batch=1" ]
    (List.rev !rows);
  Measure.write_json ~file:"BENCH_E17.json" (List.rev !json)
