(* E5 — §5.1: periodic views over overlapping intervals.

   The daily "shares sold in the preceding W days" family can be
   maintained three ways:
     - recompute: scan the last W days of retained trades per day;
     - periodic view family: W overlapping interval views maintained
       generically (cost ~ W per trade);
     - cyclic buffer: W per-day partial sums, O(1) per trade and
       O(W) once per day (the paper's proposed optimization).
   The sweep over W shows the buffer's per-trade cost is flat. *)

open Relational
open Chronicle_core
open Chronicle_temporal
open Chronicle_workload

let trades_per_day = 50
let days = 40

let run () =
  Measure.section "E5: §5.1 — moving windows (per-trade cost vs window size)"
    "Total shares over the last W days, maintained per trade.  The cyclic \
     buffer's cost does not depend on W; the generic periodic family pays \
     ~W view updates per trade; recomputation pays a scan of W days of \
     history per refresh and needs that history retained.";
  let rows = ref [] in
  List.iter
    (fun window ->
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
      let buf_cost =
        Measure.per_op ~times:(days * trades_per_day) (fun i ->
            let day = i / trades_per_day in
            Window.add w day [| Value.Int (100 * (1 + Rng.int rng 50)) |])
      in
      (* --- auto-derived windowed view (buffer + group localization) --- *)
      let db = Db.create () in
      ignore (Db.add_chronicle db ~name:"trades" Stock.trade_schema);
      let wdef =
        Sca.define ~name:"vol_w" ~body:(Ca.Chronicle (Db.chronicle db "trades"))
          (Sca.Group_agg ([ "symbol" ], [ Aggregate.sum "shares" "s" ]))
      in
      let wv = Windowed_view.derive ~buckets:window wdef in
      Windowed_view.attach db wv;
      let rng = Rng.create 5 in
      let derived_cost =
        Measure.per_op ~times:(days * trades_per_day) (fun i ->
            let day = i / trades_per_day in
            Db.advance_clock db day;
            ignore (Db.append db "trades" [ Stock.trade_for rng "T" ]))
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
      Periodic.attach db family;
      let rng = Rng.create 5 in
      let fam_cost =
        Measure.per_op ~times:(days * trades_per_day) (fun i ->
            let day = i / trades_per_day in
            Db.advance_clock db day;
            ignore (Db.append db "trades" [ Stock.trade_for rng "T" ]))
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
      let recompute_cost =
        Measure.per_op ~times:50 (fun _ ->
            let total = ref 0 in
            Chron.scan
              (fun tu -> total := !total + Value.to_int (Tuple.get tu 2))
              chron;
            ignore !total)
      in
      rows :=
        [
          Measure.i window;
          Measure.f3 buf_cost.Measure.micros;
          Measure.f3 derived_cost.Measure.micros;
          Measure.f2 fam_cost.Measure.micros;
          Measure.f1 recompute_cost.Measure.micros;
          Measure.i (Periodic.live_views family);
        ]
        :: !rows)
    [ 10; 30; 100; 300 ];
  Measure.print_table
    ~title:"E5  per-trade cost of a W-day moving SUM"
    ~header:
      [ "W"; "cyclic buffer us"; "derived view us"; "periodic family us";
        "recompute us"; "live views (bounded)" ]
    (List.rev !rows)
