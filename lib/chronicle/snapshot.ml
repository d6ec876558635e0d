open Relational

exception Snapshot_error of string

let error fmt = Format.kasprintf (fun s -> raise (Snapshot_error s)) fmt

(* Every serializer below is a [put_x]/[get_x] pair over {!Codec};
   variants are one tag byte then their fields in declaration order. *)

let put_tag buf t = Buffer.add_char buf (Char.chr t)

(* ---- schemas and tuples ---- *)

let tys = [| Value.TBool; Value.TInt; Value.TFloat; Value.TStr |]

let put_ty buf ty =
  put_tag buf (match ty with Value.TBool -> 0 | TInt -> 1 | TFloat -> 2 | TStr -> 3)

let get_ty r =
  match Codec.byte r with
  | t when t < Array.length tys -> tys.(t)
  | t -> Codec.fail "unknown type tag %#x" t

let put_schema buf schema =
  Codec.put_list
    (fun buf (a : Schema.attr) ->
      Codec.put_string buf a.name;
      put_ty buf a.ty)
    buf
    (Array.to_list (Schema.attrs schema))

let get_schema r =
  Schema.make
    (Codec.list
       (fun r ->
         let name = Codec.string_ r in
         (name, get_ty r))
       r)

let put_key = Codec.put_list Codec.put_value
let get_key = Codec.list Codec.value
let put_tuple buf tu = put_key buf (Array.to_list tu)
let get_tuple r = Tuple.make (get_key r)
let put_attrs = Codec.put_list Codec.put_string
let get_attrs = Codec.list Codec.string_

(* ---- predicates ---- *)

let ops = [| Predicate.Eq; Ne; Le; Lt; Gt; Ge |]

let put_operand buf = function
  | Predicate.Attr a ->
      put_tag buf 0;
      Codec.put_string buf a
  | Predicate.Const v ->
      put_tag buf 1;
      Codec.put_value buf v

let get_operand r =
  match Codec.byte r with
  | 0 -> Predicate.Attr (Codec.string_ r)
  | 1 -> Predicate.Const (Codec.value r)
  | t -> Codec.fail "unknown operand tag %#x" t

let rec put_predicate buf = function
  | Predicate.True -> put_tag buf 0
  | Predicate.False -> put_tag buf 1
  | Predicate.Cmp (a, op, b) ->
      put_tag buf 2;
      put_operand buf a;
      put_tag buf
        (match op with Eq -> 0 | Ne -> 1 | Le -> 2 | Lt -> 3 | Gt -> 4 | Ge -> 5);
      put_operand buf b
  | Predicate.And (p, q) -> put_pair buf 3 p q
  | Predicate.Or (p, q) -> put_pair buf 4 p q
  | Predicate.Not p ->
      put_tag buf 5;
      put_predicate buf p

and put_pair buf tag p q =
  put_tag buf tag;
  put_predicate buf p;
  put_predicate buf q

let rec get_predicate r =
  match Codec.byte r with
  | 0 -> Predicate.True
  | 1 -> Predicate.False
  | 2 ->
      let a = get_operand r in
      let op =
        match Codec.byte r with
        | t when t < Array.length ops -> ops.(t)
        | t -> Codec.fail "unknown comparison tag %#x" t
      in
      Predicate.Cmp (a, op, get_operand r)
  | 3 ->
      let p = get_predicate r in
      Predicate.And (p, get_predicate r)
  | 4 ->
      let p = get_predicate r in
      Predicate.Or (p, get_predicate r)
  | 5 -> Predicate.Not (get_predicate r)
  | t -> Codec.fail "unknown predicate tag %#x" t

(* ---- aggregation calls ---- *)

let put_call buf (c : Aggregate.call) =
  Codec.put_string buf (Aggregate.func_name c.func);
  Codec.put_option Codec.put_string buf c.arg;
  Codec.put_string buf c.alias

let get_call r =
  let fname = Codec.string_ r in
  let func =
    match Aggregate.func_of_name fname with
    | Some f -> f
    | None -> Codec.fail "unknown aggregate %S" fname
  in
  let arg = Codec.option Codec.string_ r in
  { Aggregate.func; arg; alias = Codec.string_ r }

(* ---- chronicle algebra: chronicles and relations by name ---- *)

let rec put_ca buf = function
  | Ca.Chronicle c ->
      put_tag buf 0;
      Codec.put_string buf (Chron.name c)
  | Ca.Select (p, e) ->
      put_tag buf 1;
      put_predicate buf p;
      put_ca buf e
  | Ca.Project (attrs, e) ->
      put_tag buf 2;
      put_attrs buf attrs;
      put_ca buf e
  | Ca.SeqJoin (l, r) -> put_ca2 buf 3 l r
  | Ca.Union (l, r) -> put_ca2 buf 4 l r
  | Ca.Diff (l, r) -> put_ca2 buf 5 l r
  | Ca.GroupBySeq (gl, al, e) ->
      put_tag buf 6;
      put_attrs buf gl;
      Codec.put_list put_call buf al;
      put_ca buf e
  | Ca.ProductRel (e, rel) ->
      put_tag buf 7;
      put_ca buf e;
      Codec.put_string buf (Relation.name rel)
  | Ca.KeyJoinRel (e, rel, pairs) ->
      put_tag buf 8;
      put_ca buf e;
      Codec.put_string buf (Relation.name rel);
      Codec.put_list
        (fun buf (a, b) ->
          Codec.put_string buf a;
          Codec.put_string buf b)
        buf pairs
  | Ca.CrossChron (l, r) -> put_ca2 buf 9 l r
  | Ca.ThetaJoinChron (p, l, r) ->
      put_tag buf 10;
      put_predicate buf p;
      put_ca buf l;
      put_ca buf r

and put_ca2 buf tag l r =
  put_tag buf tag;
  put_ca buf l;
  put_ca buf r

let rec get_ca ~chronicle ~relation r =
  let get = get_ca ~chronicle ~relation in
  let two mk =
    let l = get r in
    mk l (get r)
  in
  match Codec.byte r with
  | 0 -> Ca.Chronicle (chronicle (Codec.string_ r))
  | 1 ->
      let p = get_predicate r in
      Ca.Select (p, get r)
  | 2 ->
      let attrs = get_attrs r in
      Ca.Project (attrs, get r)
  | 3 -> two (fun l r -> Ca.SeqJoin (l, r))
  | 4 -> two (fun l r -> Ca.Union (l, r))
  | 5 -> two (fun l r -> Ca.Diff (l, r))
  | 6 ->
      let gl = get_attrs r in
      let al = Codec.list get_call r in
      Ca.GroupBySeq (gl, al, get r)
  | 7 ->
      let e = get r in
      Ca.ProductRel (e, relation (Codec.string_ r))
  | 8 ->
      let e = get r in
      let rel = relation (Codec.string_ r) in
      let pairs =
        Codec.list
          (fun r ->
            let a = Codec.string_ r in
            (a, Codec.string_ r))
          r
      in
      Ca.KeyJoinRel (e, rel, pairs)
  | 9 -> two (fun l r -> Ca.CrossChron (l, r))
  | 10 ->
      let p = get_predicate r in
      two (fun l r -> Ca.ThetaJoinChron (p, l, r))
  | t -> Codec.fail "unknown chronicle-algebra tag %#x" t

(* ---- views ---- *)

let put_summarize buf = function
  | Sca.Project_out attrs ->
      put_tag buf 0;
      put_attrs buf attrs
  | Sca.Group_agg (gl, al) ->
      put_tag buf 1;
      put_attrs buf gl;
      Codec.put_list put_call buf al

let get_summarize r =
  match Codec.byte r with
  | 0 -> Sca.Project_out (get_attrs r)
  | 1 ->
      let gl = get_attrs r in
      Sca.Group_agg (gl, Codec.list get_call r)
  | t -> Codec.fail "unknown summarization tag %#x" t

let put_sca buf def =
  Codec.put_string buf (Sca.name def);
  put_ca buf (Sca.body def);
  put_summarize buf (Sca.summarize def)

let get_sca ~chronicle ~relation r =
  let name = Codec.string_ r in
  let body = get_ca ~chronicle ~relation r in
  Sca.define ~allow_non_ca:true ~name ~body (get_summarize r)

let put_index_kind buf k =
  put_tag buf (match k with Index.Hash -> 0 | Index.Ordered -> 1)

let get_index_kind r =
  match Codec.byte r with
  | 0 -> Index.Hash
  | 1 -> Index.Ordered
  | t -> Codec.fail "unknown index kind %#x" t

(* View contents are written with their hidden ℤ-multiplicities: a view
   restored from a checkpoint must keep maintaining correctly under
   retraction, so crash-equivalence holds for weighted workloads too. *)
let put_view_contents layout buf = function
  | View.Rows_dump keys ->
      put_tag buf 0;
      Codec.put_list
        (fun buf (key, mult) ->
          put_key buf key;
          Codec.put_int buf mult)
        buf keys
  | View.Groups_dump groups ->
      put_tag buf 1;
      Codec.put_list
        (fun buf (key, (cells : Aggregate.cells)) ->
          put_key buf key;
          Codec.put_int buf cells.weight;
          Aggregate.put_cells layout buf cells)
        buf groups

let get_view_contents layout r =
  match Codec.byte r with
  | 0 ->
      View.Rows_dump
        (Codec.list
           (fun r ->
             let key = get_key r in
             (key, Codec.int_ r))
           r)
  | 1 ->
      View.Groups_dump
        (Codec.list
           (fun r ->
             let key = get_key r in
             let weight = Codec.int_ r in
             let cells = Aggregate.get_cells layout r in
             cells.weight <- weight;
             (key, cells))
           r)
  | t -> Codec.fail "unknown view contents tag %#x" t

(* ---- temporal readers: patterns, calendars, windows ---- *)

let put_opt_int = Codec.put_option Codec.put_int
let get_opt_int = Codec.option Codec.int_

let rec put_pattern buf = function
  | Pattern.Atom (name, p) ->
      put_tag buf 0;
      Codec.put_string buf name;
      put_predicate buf p
  | Pattern.Seq (a, b) -> put_pattern2 buf 1 a b
  | Pattern.Or (a, b) -> put_pattern2 buf 2 a b
  | Pattern.And (a, b) -> put_pattern2 buf 3 a b

and put_pattern2 buf t a b =
  put_tag buf t;
  put_pattern buf a;
  put_pattern buf b

let rec get_pattern r =
  let two mk =
    let a = get_pattern r in
    mk a (get_pattern r)
  in
  match Codec.byte r with
  | 0 ->
      let name = Codec.string_ r in
      Pattern.Atom (name, get_predicate r)
  | 1 -> two (fun a b -> Pattern.Seq (a, b))
  | 2 -> two (fun a b -> Pattern.Or (a, b))
  | 3 -> two (fun a b -> Pattern.And (a, b))
  | t -> Codec.fail "unknown pattern tag %#x" t

let put_interval buf (iv : Interval.t) =
  Codec.put_int buf iv.Interval.start;
  Codec.put_int buf iv.Interval.stop

let get_interval r =
  let start = Codec.int_ r in
  Interval.make ~start ~stop:(Codec.int_ r)

let put_calendar buf cal =
  match Calendar.spec cal with
  | Calendar.Finite_spec intervals ->
      put_tag buf 0;
      Codec.put_list put_interval buf intervals
  | Calendar.Periodic_spec { start; width; stride } ->
      put_tag buf 1;
      List.iter (Codec.put_int buf) [ start; width; stride ]

let get_calendar r =
  match Codec.byte r with
  | 0 -> Calendar.of_spec (Calendar.Finite_spec (Codec.list get_interval r))
  | 1 ->
      let start = Codec.int_ r in
      let width = Codec.int_ r in
      Calendar.of_spec
        (Calendar.Periodic_spec { start; width; stride = Codec.int_ r })
  | t -> Codec.fail "unknown calendar tag %#x" t

(* A group's window: its start, head and clock once, then each bucket's
   cells in slot order. *)
let put_window_dump layout buf (d : Window.dump) =
  List.iter (Codec.put_int buf) [ d.Window.d_start; d.Window.d_head; d.Window.d_clock ];
  Codec.put_list (Aggregate.put_cells layout) buf d.Window.d_cells

let get_window_dump layout ~buckets r =
  let d_start = Codec.int_ r in
  let d_head = Codec.int_ r in
  let d_clock = Codec.int_ r in
  let d_cells = Codec.list (Aggregate.get_cells layout) r in
  if List.length d_cells <> buckets then
    Codec.fail "%d buckets in a window of %d" (List.length d_cells) buckets;
  { Window.d_start; d_head; d_clock; d_cells }

(* ---- temporal readers: one entry each ---- *)

let put_periodic buf (name, family) =
  let d = Periodic.dump family in
  let layout = Sca.layout (Periodic.def family) in
  Codec.put_string buf name;
  put_sca buf (Periodic.def family);
  put_calendar buf (Periodic.calendar family);
  put_opt_int buf (Periodic.expire_after family);
  Codec.put_option put_index_kind buf (Periodic.index_kind family);
  Codec.put_int buf d.Periodic.d_opened;
  Codec.put_int buf d.Periodic.d_expired;
  Codec.put_list
    (fun buf (sd : Periodic.slot_dump) ->
      Codec.put_int buf sd.Periodic.sd_index;
      put_interval buf sd.Periodic.sd_interval;
      Codec.put_bool buf sd.Periodic.sd_active;
      put_view_contents layout buf sd.Periodic.sd_contents)
    buf d.Periodic.d_slots

let get_periodic ~chronicle ~relation r =
  let name = Codec.string_ r in
  let def = get_sca ~chronicle ~relation r in
  let calendar = get_calendar r in
  let expire_after = get_opt_int r in
  let index = Codec.option get_index_kind r in
  let family = Periodic.create ?index ?expire_after ~def ~calendar () in
  let layout = Sca.layout def in
  let d_opened = Codec.int_ r in
  let d_expired = Codec.int_ r in
  let d_slots =
    Codec.list
      (fun r ->
        let sd_index = Codec.int_ r in
        let sd_interval = get_interval r in
        let sd_active = Codec.bool_ r in
        { Periodic.sd_index; sd_interval; sd_active; sd_contents = get_view_contents layout r })
      r
  in
  Periodic.load family { Periodic.d_opened; d_expired; d_slots };
  Db.Periodic_def { name; family }

let put_windowed buf (name, wv) =
  Codec.put_string buf name;
  put_sca buf (Windowed_view.def wv);
  Codec.put_int buf (Windowed_view.buckets wv);
  Codec.put_int buf (Windowed_view.bucket_width wv);
  Codec.put_int buf (Windowed_view.start wv);
  Codec.put_list
    (fun buf (key, d) ->
      put_key buf key;
      put_window_dump (Windowed_view.layout wv) buf d)
    buf (Windowed_view.dump wv)

let get_windowed ~chronicle ~relation r =
  let name = Codec.string_ r in
  let def = get_sca ~chronicle ~relation r in
  let buckets = Codec.int_ r in
  let bucket_width = Codec.int_ r in
  let start = Codec.int_ r in
  let view = Windowed_view.derive ~bucket_width ~start ~buckets def in
  Windowed_view.load view
    (Codec.list
       (fun r ->
         let key = get_key r in
         (key, get_window_dump (Windowed_view.layout view) ~buckets r))
       r);
  Db.Windowed_def { name; view }

let put_rule buf (rule : Detector.rule) =
  Codec.put_string buf rule.Detector.rule_name;
  put_pattern buf rule.Detector.pattern;
  put_attrs buf rule.Detector.key;
  put_opt_int buf rule.Detector.within;
  put_opt_int buf rule.Detector.cooldown;
  Codec.put_bool buf rule.Detector.reset_on_match

let get_rule r =
  let name = Codec.string_ r in
  let pattern = get_pattern r in
  let key = get_attrs r in
  let within = get_opt_int r in
  let cooldown = get_opt_int r in
  Detector.rule ~name ~pattern ~key ?within ?cooldown
    ~reset_on_match:(Codec.bool_ r) ()

let put_occurrence buf (o : Detector.occurrence) =
  Codec.put_string buf o.Detector.rule;
  put_key buf o.Detector.key_values;
  List.iter (Codec.put_int buf)
    [ o.Detector.started_at; o.Detector.fired_at; o.Detector.fired_sn ]

let get_occurrence r =
  let rule = Codec.string_ r in
  let key_values = get_key r in
  let started_at = Codec.int_ r in
  let fired_at = Codec.int_ r in
  { Detector.rule; key_values; started_at; fired_at; fired_sn = Codec.int_ r }

let put_detector buf det =
  let d = Detector.dump det in
  Codec.put_string buf (Chron.name (Detector.chronicle det));
  Codec.put_int buf (Detector.max_instances_per_key det);
  Codec.put_int buf d.Detector.d_dropped;
  Codec.put_int buf d.Detector.d_suppressed;
  Codec.put_list put_occurrence buf d.Detector.d_occurrences;
  Codec.put_list
    (fun buf (rd : Detector.rule_dump) ->
      put_rule buf rd.Detector.rd_rule;
      Codec.put_list
        (fun buf (key, partials) ->
          put_key buf key;
          Codec.put_list
            (fun buf (started, residual) ->
              Codec.put_int buf started;
              put_pattern buf residual)
            buf partials)
        buf rd.Detector.rd_instances;
      Codec.put_list
        (fun buf (key, c) ->
          put_key buf key;
          Codec.put_int buf c)
        buf rd.Detector.rd_last_fired)
    buf d.Detector.d_rules

let get_detector ~chronicle r =
  let chron = chronicle (Codec.string_ r) in
  let det = Detector.create ~max_instances_per_key:(Codec.int_ r) chron in
  let d_dropped = Codec.int_ r in
  let d_suppressed = Codec.int_ r in
  let d_occurrences = Codec.list get_occurrence r in
  let d_rules =
    Codec.list
      (fun r ->
        let rd_rule = get_rule r in
        let rd_instances =
          Codec.list
            (fun r ->
              let key = get_key r in
              ( key,
                Codec.list
                  (fun r ->
                    let started = Codec.int_ r in
                    (started, get_pattern r))
                  r ))
            r
        in
        let rd_last_fired =
          Codec.list
            (fun r ->
              let key = get_key r in
              (key, Codec.int_ r))
            r
        in
        { Detector.rd_rule; rd_instances; rd_last_fired })
      r
  in
  Detector.load det { Detector.d_dropped; d_suppressed; d_occurrences; d_rules };
  det

(* A definition as the journal carries it: a tag, then the entry in the
   encoding its snapshot section uses (a rule: its chronicle's name and
   the rule). *)
let put_temporal buf = function
  | Db.Periodic_def { name; family } ->
      put_tag buf 0;
      put_periodic buf (name, family)
  | Db.Windowed_def { name; view } ->
      put_tag buf 1;
      put_windowed buf (name, view)
  | Db.Rule_def { chronicle; rule } ->
      put_tag buf 2;
      Codec.put_string buf chronicle;
      put_rule buf rule

let get_temporal ~chronicle ~relation r =
  match Codec.byte r with
  | 0 -> get_periodic ~chronicle ~relation r
  | 1 -> get_windowed ~chronicle ~relation r
  | 2 ->
      let chronicle = Codec.string_ r in
      Db.Rule_def { chronicle; rule = get_rule r }
  | t -> Codec.fail "unknown temporal definition tag %#x" t

(* ---- whole database ---- *)

let put_retention buf = function
  | Chron.Discard -> put_tag buf 0
  | Chron.Full -> put_tag buf 1
  | Chron.Window n ->
      put_tag buf 2;
      Codec.put_int buf n

let get_retention r =
  match Codec.byte r with
  | 0 -> Chron.Discard
  | 1 -> Chron.Full
  | 2 -> Chron.Window (Codec.int_ r)
  | t -> Codec.fail "unknown retention tag %#x" t

let put_db buf db =
  Codec.put_list
    (fun buf name ->
      let g = Db.group db name in
      Codec.put_string buf name;
      Codec.put_int buf (Group.watermark g);
      Codec.put_int buf (Group.now g))
    buf (Db.group_names db);
  Codec.put_list
    (fun buf name ->
      let c = Db.chronicle db name in
      Codec.put_string buf name;
      Codec.put_string buf (Group.name (Chron.group c));
      put_retention buf (Chron.retention c);
      put_schema buf (Chron.user_schema c);
      Codec.put_int buf (Chron.total_appended c);
      Codec.put_option Codec.put_int buf (Chron.last_sn c);
      Codec.put_list put_tuple buf (Chron.stored c))
    buf (Db.chronicle_names db);
  Codec.put_list
    (fun buf name ->
      let v = Db.relation db name in
      if Versioned.pending_count v > 0 then
        error
          "relation %s has %d pending future-effective updates; apply or \
           drop them before snapshotting (update functions are code and \
           cannot be serialized)"
          name (Versioned.pending_count v);
      let rel = Versioned.relation v in
      Codec.put_string buf name;
      Codec.put_string buf (Group.name (Versioned.group v));
      put_schema buf (Relation.schema rel);
      Codec.put_option put_attrs buf (Relation.key rel);
      Codec.put_list put_tuple buf (Relation.to_list rel))
    buf (Db.relation_names db);
  Codec.put_list
    (fun buf view ->
      let def = View.def view in
      Codec.put_string buf (View.name view);
      put_index_kind buf (View.index_kind view);
      put_ca buf (Sca.body def);
      put_summarize buf (Sca.summarize def);
      put_view_contents (Sca.layout def) buf (View.dump view))
    buf (Db.views db);
  Codec.put_list put_periodic buf (Db.periodics db);
  Codec.put_list put_windowed buf (Db.windowed_views db);
  Codec.put_list put_detector buf (Db.detectors db)

let get_db ?jobs r =
  let groups =
    Codec.list
      (fun r ->
        let name = Codec.string_ r in
        let watermark = Codec.int_ r in
        (name, watermark, Codec.int_ r))
      r
  in
  (* the first group is the database's default one; extras are added *)
  let db =
    Db.create
      ~default_group:(match groups with (name, _, _) :: _ -> name | [] -> "main")
      ?jobs ()
  in
  List.iteri
    (fun i (name, watermark, clock) ->
      let g = if i = 0 then Db.group db name else Db.add_group db name in
      if watermark > Group.watermark g then Group.claim_sn g watermark;
      Group.advance_clock g clock)
    groups;
  ignore
    (Codec.list
       (fun r ->
         let name = Codec.string_ r in
         let group = Codec.string_ r in
         let retention = get_retention r in
         let c = Db.add_chronicle db ~group ~retention ~name (get_schema r) in
         let total = Codec.int_ r in
         let last_sn = Codec.option Codec.int_ r in
         Chron.restore c ~total ~last_sn ~retained:(Codec.list get_tuple r))
       r);
  ignore
    (Codec.list
       (fun r ->
         let name = Codec.string_ r in
         let group = Codec.string_ r in
         let schema = get_schema r in
         let key = Codec.option get_attrs r in
         let v = Db.add_relation db ~group ~name ~schema ?key () in
         List.iter (Versioned.insert v) (Codec.list get_tuple r))
       r);
  let chronicle = Db.chronicle db in
  let relation n = Versioned.relation (Db.relation db n) in
  ignore
    (Codec.list
       (fun r ->
         let name = Codec.string_ r in
         let index = get_index_kind r in
         let body = get_ca ~chronicle ~relation r in
         let def = Sca.define ~allow_non_ca:true ~name ~body (get_summarize r) in
         let view = View.create ~index def in
         View.load view (get_view_contents (Sca.layout def) r);
         Registry.register (Db.registry db) view)
       r);
  List.iter (Db.define_temporal db) (Codec.list (get_periodic ~chronicle ~relation) r);
  List.iter (Db.define_temporal db) (Codec.list (get_windowed ~chronicle ~relation) r);
  List.iter (Db.add_detector db) (Codec.list (get_detector ~chronicle) r);
  db

let save db = Codec.encode put_db db

let decode_with what get data =
  match Codec.decode get data with
  | Ok x -> x
  | Error reason -> error "malformed %s: %s" what reason
  | exception (Snapshot_error _ as e) -> raise e
  | exception e -> error "%s does not load: %s" what (Printexc.to_string e)

let load ?jobs data = decode_with "snapshot" (get_db ?jobs) data

let save_file db path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (save db))

let load_file ?jobs path = load ?jobs (In_channel.with_open_bin path In_channel.input_all)
