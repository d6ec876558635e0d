(* Industrial control (the paper's §1 lists "sensor outputs in a
   control system" among chronicle domains): a plant streams
   temperature readings; the database maintains

     - per-sensor lifetime statistics (persistent view),
     - a 60-tick moving MIN/MAX/AVG per sensor, derived automatically
       into cyclic buffers (§5.1's optimization),
     - an alarm rule: three over-threshold readings within 10 ticks
       (§6's event algebra),
     - and a consistency audit at the end.

   Run with: dune exec examples/sensor_monitoring.exe *)

open Relational
open Chronicle_core
open Chronicle_workload

let reading_schema =
  Schema.make [ ("sensor", Value.TStr); ("temp", Value.TFloat) ]

let sensors = [| "boiler"; "turbine"; "condenser"; "pump" |]

let () =
  let db = Db.create () in
  ignore
    (Db.add_chronicle db ~retention:(Chron.Window 100_000) ~name:"readings"
       reading_schema);
  let chron = Db.chronicle db "readings" in

  (* lifetime statistics, maintained on every reading *)
  let stats_def =
    Sca.define ~name:"stats" ~body:(Ca.Chronicle chron)
      (Sca.Group_agg
         ( [ "sensor" ],
           [
             Aggregate.count_star "n"; Aggregate.min_ "temp" "low";
             Aggregate.max_ "temp" "high"; Aggregate.avg "temp" "mean";
           ] ))
  in
  ignore (Db.define_view db stats_def);

  (* the last 60 ticks, as auto-derived cyclic buffers *)
  let window_def =
    Sca.define ~name:"window60" ~body:(Ca.Chronicle chron)
      (Sca.Group_agg
         ( [ "sensor" ],
           [ Aggregate.max_ "temp" "peak_60"; Aggregate.avg "temp" "mean_60" ] ))
  in
  let window = Windowed_view.derive ~buckets:60 window_def in
  Db.define_temporal db (Db.Windowed_def { name = "window"; view = window });

  (* the alarm: three readings over 90 degrees within 10 ticks *)
  let det = Detector.create chron in
  Db.add_detector db det;
  Detector.add_rule det
    (Detector.rule ~name:"overheat"
       ~pattern:
         (Pattern.repeat 3
            (Pattern.atom "hot" Predicate.("temp" >% Value.Float 90.)))
       ~key:[ "sensor" ] ~within:10 ~reset_on_match:true ~cooldown:5 ());
  let alarms = ref [] in
  Detector.on_match det (fun o -> alarms := o :: !alarms);

  (* a day of plant operation: the boiler drifts hot around tick 600 *)
  let rng = Rng.create 41 in
  for tick = 0 to 999 do
    Db.advance_clock db tick;
    Array.iter
      (fun sensor ->
        let base = if sensor = "boiler" && tick >= 600 && tick < 615 then 88. else 60. in
        let temp = base +. Rng.float rng 8. in
        ignore
          (Db.append db "readings"
             [ Tuple.make [ Value.Str sensor; Value.Float temp ] ]))
      sensors
  done;

  Format.printf "lifetime statistics:@.";
  View.iter
    (fun row ->
      Format.printf "  %a@." (Tuple.pp_with (Sca.schema stats_def)) row)
    (Db.view db "stats");

  Format.printf "@.last 60 ticks:@.";
  List.iter
    (fun row ->
      Format.printf "  %a@." (Tuple.pp_with (Sca.schema window_def)) row)
    (Windowed_view.to_list window);

  Format.printf "@.alarms (%d):@." (List.length !alarms);
  List.iter
    (fun o -> Format.printf "  %a@." Detector.pp_occurrence o)
    (List.rev !alarms);

  (* end-of-day audit: the retained window still covers everything, so
     every view can be recomputed and diffed *)
  Format.printf "@.audit:@.";
  List.iter
    (fun (name, verdict) ->
      Format.printf "  %s: %a@." name Audit.pp_verdict verdict)
    (Audit.check_db db)
