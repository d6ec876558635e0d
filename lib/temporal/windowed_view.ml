open Relational
open Chronicle_core

exception Not_derivable of string

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

type t = {
  def : Sca.t;
  body_plan : Delta.plan; (* compiled once at derivation *)
  group : Group.t;
  buckets : int;
  bucket_width : int;
  start : Seqnum.chronon;
  key_of : Tuple.t -> Tuple.t;
  aggs : Aggregate.call list;
  arg_pos : int option array;
  windows : Window.t array Key_tbl.t;
}

let derive ?(bucket_width = 1) ~buckets def =
  let aggs =
    match Sca.summarize def with
    | Sca.Group_agg (_, al) -> al
    | Sca.Project_out _ ->
        raise
          (Not_derivable
             (Printf.sprintf
                "view %s: projection views carry no aggregate state to \
                 bucket; only grouped aggregation views derive a moving \
                 window"
                (Sca.name def)))
  in
  if buckets <= 0 || bucket_width <= 0 then
    invalid_arg "Windowed_view.derive: buckets and bucket_width must be positive";
  let body_schema = Ca.schema_of (Sca.body def) in
  let group = Ca.group_of (Sca.body def) in
  {
    def;
    body_plan = Delta.compile (Sca.body def);
    group;
    buckets;
    bucket_width;
    start = Group.now group;
    key_of = Tuple.projector body_schema (Sca.group_attrs def);
    aggs;
    arg_pos =
      Array.of_list
        (List.map
           (fun (c : Aggregate.call) -> Option.map (Schema.pos body_schema) c.arg)
           aggs);
    windows = Key_tbl.create 256;
  }

let def t = t.def
let buckets t = t.buckets
let bucket_width t = t.bucket_width

let fresh_windows t =
  Array.of_list
    (List.map
       (fun (c : Aggregate.call) ->
         Window.create ~func:c.func ~buckets:t.buckets
           ~bucket_width:t.bucket_width ~start:t.start)
       t.aggs)

let note_append t ~sn ~batch =
  let chronon = Group.now t.group in
  let delta = (Delta.run t.body_plan ~sn (Delta.appended batch)).plus in
  List.iter
    (fun tu ->
      let key = Array.to_list (t.key_of tu) in
      Stats.incr Stats.Group_lookup;
      let windows =
        match Key_tbl.find_opt t.windows key with
        | Some ws -> ws
        | None ->
            let ws = fresh_windows t in
            Key_tbl.add t.windows key ws;
            ws
      in
      List.iteri
        (fun i (c : Aggregate.call) ->
          let arg =
            match t.arg_pos.(i) with
            | None -> Value.Int 1
            | Some p -> Tuple.get tu p
          in
          ignore c;
          Window.add windows.(i) chronon arg)
        t.aggs)
    delta

let attach db t = Db.on_batch db (fun ~sn ~batch -> note_append t ~sn ~batch)

let row_of t key windows =
  let chronon = Group.now t.group in
  Tuple.make
    (key
    @ Array.to_list
        (Array.map
           (fun w ->
             (* idle groups must not report stale buckets *)
             Window.advance w chronon;
             Window.total w)
           windows))

let lookup t key =
  Option.map (row_of t key) (Key_tbl.find_opt t.windows key)

let to_list t =
  Key_tbl.fold (fun key ws acc -> row_of t key ws :: acc) t.windows []
  |> List.sort Tuple.compare

let group_count t = Key_tbl.length t.windows

let dump t =
  Key_tbl.fold
    (fun key windows acc ->
      (key, List.map Window.dump (Array.to_list windows)) :: acc)
    t.windows []
  |> List.sort (fun (a, _) (b, _) -> Value.compare_list a b)

let load t groups =
  if Key_tbl.length t.windows > 0 then
    invalid_arg "Windowed_view.load: view already has groups";
  List.iter
    (fun (key, dumps) ->
      if List.length dumps <> List.length t.aggs then
        invalid_arg "Windowed_view.load: window count mismatch";
      let windows = fresh_windows t in
      List.iteri (fun i d -> Window.load windows.(i) d) dumps;
      Key_tbl.add t.windows key windows)
    groups
