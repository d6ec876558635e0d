(* E18 — operational: the price of self-healing storage.

   (a) Scrub cost vs journal length: the read-only verification pass
       re-CRCs every journal record (and checkpoint generation), so it
       is linear in stored bytes and touches no database state.
   (b) Salvage cost vs damage position: salvage is strict recovery
       that cuts the journal at the first damage — it reads every
       segment with the same reader and replays the surviving prefix
       through the same windowed loop — so its cost tracks where the
       damage sits, not the journal length, plus one quarantine write.
   (c) Checkpoint cost at keep-checkpoints 1 and 3: one layout — every
       checkpoint seals the journal, writes a CRC-headed generation and
       prunes — so the two differ only in how much the prune keeps.

   Machine-readable evidence lands in BENCH_E18.json. *)

open Relational
open Chronicle_core
open Chronicle_durability

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

let build ?segment_bytes n =
  let storage = Storage.mem () in
  let db = mk_db () in
  let d = Durable.attach ?segment_bytes ~storage db in
  for i = 1 to n do
    ignore (Db.append db "mileage" [ one_row i ])
  done;
  Durable.detach d;
  storage

let clone (src : Storage.t) =
  let dst = Storage.mem () in
  List.iter
    (fun name ->
      match src.Storage.read name with
      | Some bytes -> dst.Storage.write name bytes
      | None -> ())
    (src.Storage.list ());
  dst

let stored_bytes (st : Storage.t) =
  List.fold_left
    (fun acc n -> acc + Option.value ~default:0 (st.Storage.size n))
    0
    (st.Storage.list ())

let scrub_cost json =
  let rows = ref [] in
  List.iter
    (fun (n, segment_bytes, label) ->
      let storage = build ?segment_bytes n in
      let bytes = stored_bytes storage in
      let secs =
        Measure.median_time ~runs:5 (fun () -> ignore (Scrub.run storage))
      in
      rows :=
        [
          label;
          Measure.i n;
          Measure.i bytes;
          Measure.f2 (secs *. 1e3);
          Measure.f2 (secs /. float_of_int n *. 1e6);
        ]
        :: !rows;
      json :=
        Measure.J_obj
          [
            ("op", Measure.J_str "scrub");
            ("layout", Measure.J_str label);
            ("n", Measure.J_int n);
            ("stored_bytes", Measure.J_int bytes);
            ("millis", Measure.J_float (secs *. 1e3));
            ( "micros_per_record",
              Measure.J_float (secs /. float_of_int n *. 1e6) );
          ]
        :: !json)
    [
      (1_000, None, "single file");
      (10_000, None, "single file");
      (10_000, Some 65_536, "64 KiB segments");
    ];
  Measure.print_table ~title:"E18a  scrub cost vs journal length"
    ~header:[ "layout"; "records"; "stored B"; "scrub ms"; "us/record" ]
    (List.rev !rows)

let salvage_cost json =
  let n = 10_000 in
  let pristine = build n in
  let journal_len =
    Option.value ~default:0 (pristine.Storage.size Durable.journal_file)
  in
  let rows = ref [] in
  List.iter
    (fun frac ->
      let damaged = clone pristine in
      Fault.flip_bit damaged ~name:Durable.journal_file
        ~byte:(10 + int_of_float (float_of_int (journal_len - 10) *. frac))
        ~bit:0;
      (* time salvage on a fresh clone per run: salvage mutates *)
      let replayed = ref 0 and quarantined = ref 0 in
      let secs =
        Measure.median_time ~runs:3 (fun () ->
            let _, report =
              Durable.recover ~mode:Durable.Salvage ~storage:(clone damaged)
                ()
            in
            replayed := report.Durable.replayed;
            quarantined := report.Durable.quarantined)
      in
      rows :=
        [
          Printf.sprintf "%.2f" frac;
          Measure.i !replayed;
          Measure.i !quarantined;
          Measure.f2 (secs *. 1e3);
        ]
        :: !rows;
      json :=
        Measure.J_obj
          [
            ("op", Measure.J_str "salvage");
            ("n", Measure.J_int n);
            ("damage_fraction", Measure.J_float frac);
            ("replayed", Measure.J_int !replayed);
            ("quarantined", Measure.J_int !quarantined);
            ("millis", Measure.J_float (secs *. 1e3));
          ]
        :: !json)
    [ 0.25; 0.5; 0.9 ];
  (* baseline: strict recovery of the pristine journal *)
  let secs =
    Measure.median_time ~runs:3 (fun () ->
        ignore (Durable.recover ~storage:(clone pristine) ()))
  in
  rows := [ "clean (strict)"; Measure.i n; Measure.i 0; Measure.f2 (secs *. 1e3) ] :: !rows;
  json :=
    Measure.J_obj
      [
        ("op", Measure.J_str "strict-baseline");
        ("n", Measure.J_int n);
        ("millis", Measure.J_float (secs *. 1e3));
      ]
    :: !json;
  Measure.print_table
    ~title:"E18b  salvage recovery vs damage position (10k-record journal)"
    ~header:[ "damage at"; "replayed"; "quarantined"; "recover ms" ]
    (List.rev !rows)

(* A single checkpoint takes about 0.1 ms, near the clock's resolution,
   so each sample is the mean of [checkpoints_per_section] checkpoints,
   each after one append; the two instances alternate, order swapped
   every round, and report the median and quartiles of their rounds. *)
let checkpoint_rounds = 9
let checkpoints_per_section = 100

let checkpoint_cost json =
  let instances =
    List.map
      (fun keep ->
        let storage = Storage.mem () in
        let db = mk_db () in
        let d = Durable.attach ~keep_checkpoints:keep ~storage db in
        for i = 1 to 5_000 do
          ignore (Db.append db "mileage" [ one_row i ])
        done;
        (keep, db, d, ref []))
      [ 1; 3 ]
  in
  for round = 1 to checkpoint_rounds do
    List.iter
      (fun (_, db, d, samples) ->
        let secs = ref 0. in
        for i = 1 to checkpoints_per_section do
          ignore (Db.append db "mileage" [ one_row i ]);
          let t0 = Measure.now () in
          Durable.checkpoint d;
          secs := !secs +. (Measure.now () -. t0)
        done;
        samples := !secs /. float_of_int checkpoints_per_section :: !samples)
      (if round mod 2 = 1 then instances else List.rev instances)
  done;
  let rows =
    List.map
      (fun (keep, _, d, samples) ->
        Durable.detach d;
        let q1, median, q3 = Measure.quartiles !samples in
        json :=
          Measure.J_obj
            [
              ("op", Measure.J_str "checkpoint");
              ("keep_checkpoints", Measure.J_int keep);
              ("rounds", Measure.J_int checkpoint_rounds);
              ("checkpoints_per_round", Measure.J_int checkpoints_per_section);
              ("millis", Measure.J_float (median *. 1e3));
              ("millis_q1", Measure.J_float (q1 *. 1e3));
              ("millis_q3", Measure.J_float (q3 *. 1e3));
            ]
          :: !json;
        [
          Printf.sprintf "keep=%d" keep;
          Measure.f3 (median *. 1e3);
          Printf.sprintf "%s–%s" (Measure.f3 (q1 *. 1e3)) (Measure.f3 (q3 *. 1e3));
        ])
      instances
  in
  Measure.print_table ~title:"E18c  checkpoint cost at keep 1 and keep 3"
    ~header:[ "generations kept"; "checkpoint ms"; "q1–q3" ]
    rows

let run () =
  Measure.section "E18: self-healing storage — scrub, salvage, generations"
    "Scrub re-CRCs and decodes every stored record read-only (linear \
     in bytes); salvage replays the prefix before the damage through \
     strict recovery's loop; a checkpoint seals the journal, writes one \
     CRC-headed generation and prunes to the newest K.";
  let json = ref [ Measure.hardware_json () ] in
  scrub_cost json;
  salvage_cost json;
  checkpoint_cost json;
  Measure.write_json ~file:"BENCH_E18.json" (List.rev !json)
