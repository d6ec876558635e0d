(* The §5.1 moving-window example: "a periodic view for every day that
   computes the total number of shares of a stock sold during the 30
   days preceding that day", optimized with a cyclic buffer of 30
   per-day partial sums.

   This example runs the same workload through (a) the generic periodic
   view family over a sliding calendar, and (b) the cyclic-buffer
   window optimizer, and shows that they agree while (b) does O(1)
   amortized work per trade.

   Run with: dune exec examples/stock_window.exe *)

open Relational
open Chronicle_core
open Chronicle_workload

let days = 60
let window = 30

let () =
  let db = Db.create () in
  ignore (Db.add_chronicle db ~name:"trades" Stock.trade_schema);
  let trades = Db.chronicle db "trades" in

  (* (a) a periodic view per day: shares by symbol over the last 30 days *)
  let def =
    Sca.define ~name:"volume30" ~body:(Ca.Chronicle trades)
      (Sca.Group_agg ([ "symbol" ], [ Aggregate.sum "shares" "shares30" ]))
  in
  let family =
    Periodic.create ~expire_after:3
      ~def
      ~calendar:(Calendar.periodic ~start:(-(window - 1)) ~width:window ~stride:1)
      ()
  in
  Db.define_temporal db (Db.Periodic_def { name = "shares30"; family });

  (* (b) the cyclic-buffer optimizer for one symbol *)
  let w =
    Window.create
      ~layout:(Aggregate.layout Stock.trade_schema [ Aggregate.sum "shares" "s" ])
      ~buckets:window ~bucket_width:1 ~start:0
  in

  let rng = Rng.create 7 in
  let symbol = "T" in
  for day = 0 to days - 1 do
    Db.advance_clock db day;
    for _ = 1 to 20 do
      let trade = Stock.trade_for rng (if Rng.int rng 3 = 0 then symbol else "IBM") in
      ignore (Db.append db "trades" [ trade ]);
      if Value.equal (Tuple.get trade 0) (Value.Str symbol) then
        Window.add w day trade
    done;
    Window.advance w day
  done;

  (* Today's periodic view is the one whose 30-day interval ends now. *)
  let today = days - 1 in
  let current_view =
    match Periodic.current family with
    | Some (_, v) -> v
    | None -> failwith "no active window view"
  in
  let from_periodic =
    match View.lookup current_view [ Value.Str symbol ] with
    | Some row -> Value.to_int (Tuple.get row 1)
    | None -> 0
  in
  let from_buffer =
    match Window.total w with [ Value.Int n ] -> n | v -> Value.to_int (List.hd v)
  in
  Format.printf "day %d, 30-day volume of %s:@." today symbol;
  Format.printf "  periodic view family : %d shares@." from_periodic;
  Format.printf "  cyclic buffer        : %d shares (%s)@." from_buffer
    (if from_periodic = from_buffer then "agree" else "DISAGREE");
  Format.printf "  buffer rollovers     : %d (one per day, each O(buckets))@."
    (Window.rolls w);
  Format.printf
    "  live interval views  : %d (expiration keeps the infinite calendar \
     bounded)@."
    (Periodic.live_views family);

  (* per-bucket inspection: the paper's "30 numbers" *)
  let buckets = Window.bucket_totals w in
  Format.printf "  last 5 daily sums    : %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    (List.filteri (fun i _ -> i >= window - 5) (List.map List.hd buckets))
