(* E12 — operational: snapshot save/load cost vs materialized state
   size.  Machine-readable evidence lands in BENCH_E12.json.  Because the chronicle is not stored, the persistent views ARE
   the database; restart cost is proportional to |V| (plus retained
   windows), never to |C|. *)

open Relational
open Chronicle_core
open Chronicle_workload

let run () =
  Measure.section "E12: snapshot cost (restart without replay)"
    "Save/load a database whose views hold |V| groups after 5x|V| \
     appends with retention Discard.  Cost scales with the materialized \
     state, not with the (unstored, unbounded) chronicle.";
  let rows = ref [] and json = ref [ Measure.hardware_json () ] in
  List.iter
    (fun groups ->
      let db = Db.create () in
      ignore (Db.add_chronicle db ~name:"txns" Banking.txn_schema);
      ignore
        (Db.define_view db
           (Sca.define ~name:"balance"
              ~body:(Ca.Chronicle (Db.chronicle db "txns"))
              (Sca.Group_agg
                 ( [ "acct" ],
                   [ Aggregate.sum "amount" "bal"; Aggregate.count_star "n";
                     Aggregate.avg "amount" "avg" ] ))));
      let rng = Rng.create 3 in
      let zipf = Zipf.create ~n:groups ~s:0.5 in
      for _ = 1 to 5 * groups do
        ignore (Db.append db "txns" [ Banking.txn rng zipf ])
      done;
      let doc = ref "" in
      let save_secs = Measure.median_time ~runs:3 (fun () -> doc := Snapshot.save db) in
      let load_secs =
        Measure.median_time ~runs:3 (fun () -> ignore (Snapshot.load !doc))
      in
      json :=
        Measure.J_obj
          [
            ("groups", Measure.J_int (View.size (Db.view db "balance")));
            ("appended", Measure.J_int (Chron.total_appended (Db.chronicle db "txns")));
            ("save_millis", Measure.J_float (save_secs *. 1e3));
            ("load_millis", Measure.J_float (load_secs *. 1e3));
            ("bytes", Measure.J_int (String.length !doc));
          ]
        :: !json;
      rows :=
        [
          Measure.i (View.size (Db.view db "balance"));
          Measure.i (Chron.total_appended (Db.chronicle db "txns"));
          Measure.f1 (save_secs *. 1e3);
          Measure.f1 (load_secs *. 1e3);
          Measure.i (String.length !doc / 1024);
        ]
        :: !rows)
    [ 1_000; 10_000; 100_000 ];
  Measure.print_table ~title:"E12  snapshot save/load vs view size"
    ~header:[ "|V| groups"; "|C| appended"; "save ms"; "load ms"; "size KiB" ]
    (List.rev !rows);
  Measure.write_json ~file:"BENCH_E12.json" (List.rev !json)
