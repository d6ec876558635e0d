(* E5 — §5.1: periodic views over overlapping intervals.

   The daily "shares sold in the preceding W days" family can be
   maintained three ways:
     - recompute: scan the last W days of retained trades per day;
     - periodic view family: W overlapping interval views maintained
       generically (cost ~ W per trade);
     - cyclic buffer: W per-day partial sums, O(1) per trade and
       O(W) once per day (the paper's proposed optimization).
   The sweep over W shows the buffer's per-trade cost is flat.

   Each (W, method) cell is timed over [rounds] sections, each a fixed
   operation count calibrated once to run for at least [section_s]
   seconds.  Major collections are rare here (about one per second of
   the whole run; the JSON records each cell's count), so one landing
   inside a section moves that section, not the cell's median.  The
   methods take turns within a round, the order rotating every round,
   and each cell reports the median and quartiles of its sections: a
   change counts only where it exceeds that spread.

   Machine-readable evidence lands in BENCH_E5.json. *)

open Relational
open Chronicle_core
open Chronicle_workload

let trades_per_day = 50
let rounds = 9
let section_s = 0.05

(* One maintained structure: [step i] performs its [i]-th operation;
   [i] runs on across sections, so the clock only moves forward. *)
type meth = { label : string; step : int -> unit; mutable next : int }

let section m ops =
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Measure.now () in
  for _ = 1 to ops do
    m.step m.next;
    m.next <- m.next + 1
  done;
  let secs = Measure.now () -. t0 in
  (secs /. float_of_int ops *. 1e6, (Gc.quick_stat ()).Gc.major_collections - gc0)

(* The operation count of a section: doubled from 64 until one section
   runs for at least [section_s] (the calibration sections warm the
   structure up and are not reported). *)
let calibrate m =
  let rec go ops =
    let t0 = Measure.now () in
    ignore (section m ops);
    if Measure.now () -. t0 >= section_s then ops else go (2 * ops)
  in
  go 64

let methods window =
  (* --- cyclic buffer --- *)
  let rng = Rng.create 5 in
  let w =
    Window.create
      ~layout:
        (Aggregate.layout
           (Schema.make [ ("shares", Value.TInt) ])
           [ Aggregate.sum "shares" "s" ])
      ~buckets:window ~bucket_width:1 ~start:0
  in
  let buffer i =
    Window.add w (i / trades_per_day) [| Value.Int (100 * (1 + Rng.int rng 50)) |]
  in
  (* --- auto-derived windowed view (buffer + group localization) --- *)
  let derived =
    let db = Db.create () in
    ignore (Db.add_chronicle db ~name:"trades" Stock.trade_schema);
    let wdef =
      Sca.define ~name:"vol_w" ~body:(Ca.Chronicle (Db.chronicle db "trades"))
        (Sca.Group_agg ([ "symbol" ], [ Aggregate.sum "shares" "s" ]))
    in
    Db.define_temporal db
      (Db.Windowed_def
         { name = "vol_w"; view = Windowed_view.derive ~buckets:window wdef });
    let rng = Rng.create 5 in
    fun i ->
      Db.advance_clock db (i / trades_per_day);
      ignore (Db.append db "trades" [ Stock.trade_for rng "T" ])
  in
  (* --- generic periodic family --- *)
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"trades" Stock.trade_schema);
  let def =
    Sca.define ~name:"vol" ~body:(Ca.Chronicle (Db.chronicle db "trades"))
      (Sca.Group_agg ([ "symbol" ], [ Aggregate.sum "shares" "s" ]))
  in
  let family =
    Periodic.create ~expire_after:2 ~def
      ~calendar:(Calendar.periodic ~start:(-(window - 1)) ~width:window ~stride:1)
      ()
  in
  Db.define_temporal db (Db.Periodic_def { name = "vol"; family });
  let rng = Rng.create 5 in
  let periodic i =
    Db.advance_clock db (i / trades_per_day);
    ignore (Db.append db "trades" [ Stock.trade_for rng "T" ])
  in
  (* --- recomputation over retained history --- *)
  let group = Group.create "g" in
  let chron =
    Chron.create ~group ~retention:(Chron.Window (window * trades_per_day))
      ~name:"trades" Stock.trade_schema
  in
  let rng = Rng.create 5 in
  (* fill the retention ring completely so each recomputation scans
     exactly W days of trades *)
  for _ = 1 to window * trades_per_day do
    ignore (Chron.append chron [ Stock.trade_for rng "T" ])
  done;
  let recompute _ =
    let total = ref 0 in
    Chron.scan (fun tu -> total := !total + Value.to_int (Tuple.get tu 2)) chron;
    ignore !total
  in
  ( family,
    List.map
      (fun (label, step) -> { label; step; next = 0 })
      [
        ("cyclic buffer", buffer);
        ("derived view", derived);
        ("periodic family", periodic);
        ("recompute", recompute);
      ] )

let run () =
  Measure.section "E5: §5.1 — moving windows (per-trade cost vs window size)"
    "Total shares over the last W days, maintained per trade.  The cyclic \
     buffer's cost does not depend on W; the generic periodic family pays \
     ~W view updates per trade; recomputation pays a scan of W days of \
     history per refresh and needs that history retained.  Median and \
     quartiles of repeated sections, methods alternating.";
  let json = ref [ Measure.hardware_json () ] in
  let rows =
    List.concat_map
      (fun window ->
        let family, ms = methods window in
        let cells =
          List.map (fun m -> (m, calibrate m, ref [], ref 0)) ms
        in
        for round = 0 to rounds - 1 do
          let k = round mod List.length cells in
          List.iteri
            (fun i _ ->
              let m, ops, samples, gcs =
                List.nth cells ((i + k) mod List.length cells)
              in
              let us, majors = section m ops in
              samples := us :: !samples;
              gcs := !gcs + majors)
            cells
        done;
        List.map
          (fun (m, ops, samples, gcs) ->
            let q1, median, q3 = Measure.quartiles !samples in
            json :=
              Measure.J_obj
                [
                  ("window", Measure.J_int window);
                  ("method", Measure.J_str m.label);
                  ("rounds", Measure.J_int rounds);
                  ("ops_per_section", Measure.J_int ops);
                  ("major_gcs", Measure.J_int !gcs);
                  ("micros_per_op_median", Measure.J_float median);
                  ("micros_per_op_q1", Measure.J_float q1);
                  ("micros_per_op_q3", Measure.J_float q3);
                ]
              :: !json;
            [
              Measure.i window;
              m.label;
              Measure.f3 median;
              Printf.sprintf "%s–%s" (Measure.f3 q1) (Measure.f3 q3);
              Measure.i ops;
              Measure.i !gcs;
            ])
          cells
        |> fun rows ->
        Measure.note "W=%d: %d live periodic views (bounded)" window
          (Periodic.live_views family);
        rows)
      [ 10; 30; 100; 300 ]
  in
  Measure.print_table ~title:"E5  per-trade cost of a W-day moving SUM"
    ~header:
      [ "W"; "method"; "us/op"; "q1–q3"; "ops/section"; "major GCs" ]
    rows;
  Measure.write_json ~file:"BENCH_E5.json" (List.rev !json)
