open Relational

exception Not_derivable of string

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

type t = {
  def : Sca.t;
  group : Group.t;
  buckets : int;
  bucket_width : int;
  start : Seqnum.chronon;
  key_of : Tuple.t -> Tuple.t;
  layout : Aggregate.layout;
  windows : Window.t Key_tbl.t; (* one cell ring per group *)
}

let derive ?(bucket_width = 1) ?start ~buckets def =
  let not_derivable what =
    raise
      (Not_derivable
         (Printf.sprintf
            "view %s: %s carry no aggregate state to bucket; only grouped \
             aggregation views derive a moving window"
            (Sca.name def) what))
  in
  (match Sca.summarize def with
  | Sca.Group_agg (_, _ :: _) -> ()
  | Sca.Group_agg (_, []) -> not_derivable "groupings without aggregates"
  | Sca.Project_out _ -> not_derivable "projection views");
  if buckets <= 0 || bucket_width <= 0 then
    invalid_arg "Windowed_view.derive: buckets and bucket_width must be positive";
  let group = Ca.group_of (Sca.body def) in
  {
    def;
    group;
    buckets;
    bucket_width;
    start = Option.value start ~default:(Group.now group);
    key_of = Tuple.projector (Ca.schema_of (Sca.body def)) (Sca.group_attrs def);
    layout = Sca.layout def;
    windows = Key_tbl.create 256;
  }

let def t = t.def
let buckets t = t.buckets
let bucket_width t = t.bucket_width
let start t = t.start
let layout t = t.layout

let fresh_window t =
  Window.create ~layout:t.layout ~buckets:t.buckets ~bucket_width:t.bucket_width
    ~start:t.start

let note_append t delta =
  let chronon = Group.now t.group in
  List.iter
    (fun tu ->
      let key = Array.to_list (t.key_of tu) in
      Stats.incr Stats.Group_lookup;
      let w =
        match Key_tbl.find_opt t.windows key with
        | Some w -> w
        | None ->
            let w = fresh_window t in
            Key_tbl.add t.windows key w;
            w
      in
      Window.add w chronon tu)
    delta

let row_of t key w =
  (* idle groups must not report stale buckets *)
  Window.advance w (Group.now t.group);
  Tuple.make (key @ Window.total w)

let lookup t key =
  Option.map (row_of t key) (Key_tbl.find_opt t.windows key)

let to_list t =
  Key_tbl.fold (fun key w acc -> row_of t key w :: acc) t.windows []
  |> List.sort Tuple.compare

let group_count t = Key_tbl.length t.windows

let dump t =
  Key_tbl.fold (fun key w acc -> (key, Window.dump w) :: acc) t.windows []
  |> List.sort (fun (a, _) (b, _) -> Value.compare_list a b)

let load t groups =
  if Key_tbl.length t.windows > 0 then
    invalid_arg "Windowed_view.load: view already has groups";
  List.iter
    (fun (key, d) ->
      let w = fresh_window t in
      Window.load w d;
      Key_tbl.add t.windows key w)
    groups
