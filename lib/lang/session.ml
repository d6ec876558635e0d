open Chronicle_core
open Chronicle_temporal
open Chronicle_events
module Staging = Chronicle_durability.Group

type t = {
  db : Db.t;
  stager : Staging.t;
  periodics : (string, Periodic.t) Hashtbl.t;
  windows : (string, Windowed_view.t) Hashtbl.t;
  detectors : (string, Detector.t) Hashtbl.t; (* by chronicle name *)
}

let of_db db =
  {
    db;
    stager = Staging.create db;
    periodics = Hashtbl.create 8;
    windows = Hashtbl.create 8;
    detectors = Hashtbl.create 8;
  }

let create ?jobs () = of_db (Db.create ?jobs ())

let db t = t.db
let stager t = t.stager
let batch t = Staging.batch t.stager
let set_batch t n = Staging.set_batch t.stager n
let flush t = Staging.flush t.stager

let add_periodic t name family =
  if Hashtbl.mem t.periodics name then
    invalid_arg (Printf.sprintf "Session: periodic view %s already exists" name);
  Hashtbl.add t.periodics name family

let periodic t name = Hashtbl.find_opt t.periodics name

let add_windowed t name wv =
  if Hashtbl.mem t.windows name then
    invalid_arg (Printf.sprintf "Session: windowed view %s already exists" name);
  Hashtbl.add t.windows name wv

let windowed t name = Hashtbl.find_opt t.windows name

let detector t chron =
  let cname = Chron.name chron in
  match Hashtbl.find_opt t.detectors cname with
  | Some det -> det
  | None ->
      let det = Detector.create chron in
      Detector.attach t.db det;
      Hashtbl.add t.detectors cname det;
      det

let detectors t = Hashtbl.fold (fun _ d acc -> d :: acc) t.detectors []

let sorted_bindings tbl =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let periodics t = sorted_bindings t.periodics
let windowed_views t = sorted_bindings t.windows
let named_detectors t = sorted_bindings t.detectors

let append_only_reader t c =
  let reads def =
    List.exists
      (fun c' -> String.equal (Chron.name c') (Chron.name c))
      (Ca.chronicles (Sca.body def))
  in
  let readers kind def views =
    List.filter_map
      (fun (name, v) -> if reads (def v) then Some (kind ^ " " ^ name) else None)
      views
  in
  let rules =
    match Hashtbl.find_opt t.detectors (Chron.name c) with
    | Some det ->
        List.map (fun r -> "rule " ^ r.Detector.rule_name) (Detector.rules det)
    | None -> []
  in
  List.nth_opt
    (readers "periodic view" Periodic.def (periodics t)
    @ readers "windowed view" Windowed_view.def (windowed_views t)
    @ rules)
    0
