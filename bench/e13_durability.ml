(* E13 — operational: the price of crash-safety.

   (a) Journal overhead per append: the same single-row append against
       one grouped-aggregate view, undurable vs journaled to memory vs
       journaled to disk under each sync policy.  The write-ahead record
       is framed + CRC-checksummed + appended before the delta fold
       runs; everything except the fsync should be noise next to view
       maintenance.
   (b) Recovery time vs journal length: recovery replays the journal
       suffix through the normal delta path, so it is linear in the
       number of journaled batches since the last checkpoint — and
       independent of the (unstored) chronicle prefix before it.

   Machine-readable evidence lands in BENCH_E13.json, matching the
   experiment number.  (Early runs wrote BENCH_E9.json — a leftover
   from the experiment plan's numbering before E9 was taken by the
   theorem checks; the file has been renamed, see the provenance note
   in bench/results/e13_durability.json.) *)

open Relational
open Chronicle_core
open Chronicle_durability

let schema =
  Schema.make [ ("acct", Value.TInt); ("miles", Value.TInt) ]

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
  let dir = Filename.temp_file "chronicle_e13" "" in
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

let append_overhead json =
  let measure ?times label attach =
    let db = mk_db () in
    let cleanup = attach db in
    let r = Measure.per_op ?times (fun i -> ignore (Db.append db "mileage" [ one_row i ])) in
    cleanup ();
    json := Measure.json_of_per_op ~op:("append/" ^ label) ~n:1 r :: !json;
    ( label,
      r.Measure.micros,
      Measure.counter r Stats.Journal_bytes )
  in
  let none = measure "undurable" (fun _ -> fun () -> ()) in
  let mem sync label =
    measure label (fun db ->
        let d = Durable.attach ~sync ~storage:(Storage.mem ()) db in
        fun () -> Durable.detach d)
  in
  let disk sync label =
    with_temp_dir (fun dir ->
        measure ~times:100 label (fun db ->
            let d = Durable.attach ~sync ~storage:(Storage.disk ~dir) db in
            fun () -> Durable.detach d))
  in
  let rows =
    [
      none;
      mem Journal.Sync_never "mem";
      disk Journal.Sync_never "disk,sync=never";
      disk (Journal.Sync_every 64) "disk,sync=every:64";
      disk Journal.Sync_always "disk,sync=always";
    ]
  in
  Measure.print_table ~title:"E13a  journal overhead per single-row append"
    ~header:[ "storage"; "us/append"; "journal B/append" ]
    (List.map
       (fun (label, micros, bytes) ->
         [ label; Measure.f2 micros; Measure.f1 bytes ])
       rows)

let recovery_cost json =
  let rows = ref [] in
  List.iter
    (fun n ->
      let storage = Storage.mem () in
      let db = mk_db () in
      let d = Durable.attach ~storage db in
      Durable.checkpoint d;
      for i = 1 to n do
        ignore (Db.append db "mileage" [ one_row i ])
      done;
      let records = Durable.journal_records d in
      let bytes = Durable.journal_bytes d in
      let secs =
        Measure.median_time ~runs:3 (fun () ->
            ignore (Durable.recover ~storage ()))
      in
      rows :=
        [
          Measure.i records;
          Measure.i bytes;
          Measure.f2 (secs *. 1e3);
          Measure.f2 (secs /. float_of_int n *. 1e6);
        ]
        :: !rows;
      json :=
        Measure.J_obj
          [
            ("op", Measure.J_str "recover");
            ("n", Measure.J_int records);
            ("journal_bytes", Measure.J_int bytes);
            ("millis", Measure.J_float (secs *. 1e3));
            ("micros_per_record", Measure.J_float (secs /. float_of_int n *. 1e6));
          ]
        :: !json)
    [ 100; 1_000; 10_000 ];
  Measure.print_table ~title:"E13b  recovery time vs journal length"
    ~header:[ "journal records"; "journal bytes"; "recover ms"; "us/record" ]
    (List.rev !rows)

let run () =
  Measure.section "E13: durability — journal overhead and recovery cost"
    "Write-ahead journaling prices every append at one framed, \
     checksummed record (plus an fsync under sync=always); recovery \
     replays the post-checkpoint suffix through the normal delta path, \
     linear in journal length.";
  let json = ref [ Measure.hardware_json () ] in
  append_overhead json;
  recovery_cost json;
  Measure.write_json ~file:"BENCH_E13.json" (List.rev !json)
