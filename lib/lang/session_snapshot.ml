open Relational
open Chronicle_core
open Chronicle_temporal
open Chronicle_events

exception Session_snapshot_error of string

let error fmt = Format.kasprintf (fun s -> raise (Session_snapshot_error s)) fmt
let tag = "CHRONSES"
let version = 2
let put_tag buf t = Buffer.add_char buf (Char.chr t)
let put_key = Snapshot.put_key
let get_key = Snapshot.get_key
let put_opt_int = Codec.put_option Codec.put_int
let get_opt_int = Codec.option Codec.int_

(* ---- patterns (the event algebra) ---- *)

let rec put_pattern buf = function
  | Pattern.Atom (name, p) ->
      put_tag buf 0;
      Codec.put_string buf name;
      Snapshot.put_predicate buf p
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
      Pattern.Atom (name, Snapshot.get_predicate r)
  | 1 -> two (fun a b -> Pattern.Seq (a, b))
  | 2 -> two (fun a b -> Pattern.Or (a, b))
  | 3 -> two (fun a b -> Pattern.And (a, b))
  | t -> Codec.fail "unknown pattern tag %#x" t

(* ---- calendars and windows ---- *)

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

let put_window_dump buf (d : Window.dump) =
  List.iter (Codec.put_int buf) [ d.Window.d_start; d.Window.d_head; d.Window.d_clock ];
  Codec.put_list Aggregate.put_state buf d.Window.d_states

let get_window_dump r =
  let d_start = Codec.int_ r in
  let d_head = Codec.int_ r in
  let d_clock = Codec.int_ r in
  { Window.d_start; d_head; d_clock; d_states = Codec.list Aggregate.get_state r }

(* ---- the four session components ---- *)

(* Periodic slots only ever append, so their entries are written
   without multiplicities and load with multiplicity 1. *)
let put_view_dump buf = function
  | View.Rows_dump keys ->
      put_tag buf 0;
      Codec.put_list (fun buf (key, _) -> put_key buf key) buf keys
  | View.Groups_dump groups ->
      put_tag buf 1;
      Codec.put_list
        (fun buf (key, _, states) ->
          put_key buf key;
          Codec.put_list Aggregate.put_state buf states)
        buf groups

let get_view_dump r =
  match Codec.byte r with
  | 0 -> View.Rows_dump (Codec.list (fun r -> (get_key r, 1)) r)
  | 1 ->
      View.Groups_dump
        (Codec.list
           (fun r ->
             let key = get_key r in
             (key, 1, Codec.list Aggregate.get_state r))
           r)
  | t -> Codec.fail "unknown view dump tag %#x" t

let put_periodic buf (name, family) =
  let d = Periodic.dump family in
  Codec.put_string buf name;
  Snapshot.put_sca buf (Periodic.def family);
  put_calendar buf (Periodic.calendar family);
  put_opt_int buf (Periodic.expire_after family);
  Codec.put_option Snapshot.put_index_kind buf (Periodic.index_kind family);
  Codec.put_int buf d.Periodic.d_opened;
  Codec.put_int buf d.Periodic.d_expired;
  Codec.put_list
    (fun buf (sd : Periodic.slot_dump) ->
      Codec.put_int buf sd.Periodic.sd_index;
      put_interval buf sd.Periodic.sd_interval;
      Codec.put_bool buf sd.Periodic.sd_active;
      put_view_dump buf sd.Periodic.sd_contents)
    buf d.Periodic.d_slots

let get_periodic session ~chronicle ~relation r =
  let name = Codec.string_ r in
  let def = Snapshot.get_sca ~chronicle ~relation r in
  let calendar = get_calendar r in
  let expire_after = get_opt_int r in
  let index = Codec.option Snapshot.get_index_kind r in
  let family = Periodic.create ?index ?expire_after ~def ~calendar () in
  let d_opened = Codec.int_ r in
  let d_expired = Codec.int_ r in
  let d_slots =
    Codec.list
      (fun r ->
        let sd_index = Codec.int_ r in
        let sd_interval = get_interval r in
        let sd_active = Codec.bool_ r in
        { Periodic.sd_index; sd_interval; sd_active; sd_contents = get_view_dump r })
      r
  in
  Periodic.load family { Periodic.d_opened; d_expired; d_slots };
  Periodic.attach (Session.db session) family;
  Session.add_periodic session name family

let put_windowed buf (name, wv) =
  Codec.put_string buf name;
  Snapshot.put_sca buf (Windowed_view.def wv);
  Codec.put_int buf (Windowed_view.buckets wv);
  Codec.put_int buf (Windowed_view.bucket_width wv);
  Codec.put_list
    (fun buf (key, dumps) ->
      put_key buf key;
      Codec.put_list put_window_dump buf dumps)
    buf (Windowed_view.dump wv)

let get_windowed session ~chronicle ~relation r =
  let name = Codec.string_ r in
  let def = Snapshot.get_sca ~chronicle ~relation r in
  let buckets = Codec.int_ r in
  let bucket_width = Codec.int_ r in
  let wv = Windowed_view.derive ~bucket_width ~buckets def in
  Windowed_view.load wv
    (Codec.list
       (fun r ->
         let key = get_key r in
         (key, Codec.list get_window_dump r))
       r);
  Windowed_view.attach (Session.db session) wv;
  Session.add_windowed session name wv

let put_rule buf (rule : Detector.rule) =
  Codec.put_string buf rule.Detector.rule_name;
  put_pattern buf rule.Detector.pattern;
  Snapshot.put_attrs buf rule.Detector.key;
  put_opt_int buf rule.Detector.within;
  put_opt_int buf rule.Detector.cooldown;
  Codec.put_bool buf rule.Detector.reset_on_match

let get_rule r =
  let name = Codec.string_ r in
  let pattern = get_pattern r in
  let key = Snapshot.get_attrs r in
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

let put_detector buf (cname, det) =
  let d = Detector.dump det in
  Codec.put_string buf cname;
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

let get_detector session r =
  let db = Session.db session in
  let cname = Codec.string_ r in
  let chron =
    try Db.chronicle db cname
    with Db.Unknown msg -> error "detector chronicle: %s" msg
  in
  (* Session.detector attaches the session's (fresh) detector; the
     saved instance cap must agree with it before state is loaded *)
  let det = Session.detector session chron in
  let max_instances = Codec.int_ r in
  if Detector.max_instances_per_key det <> max_instances then
    error
      "detector on %s: instance cap %d differs from the snapshot's %d (the \
       session default changed?)"
      cname
      (Detector.max_instances_per_key det)
      max_instances;
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
  Detector.load det { Detector.d_dropped; d_suppressed; d_occurrences; d_rules }

(* ---- whole sessions ---- *)

let put_session buf session =
  Buffer.add_string buf (Codec.magic ~tag ~version);
  Snapshot.put_db buf (Session.db session);
  Codec.put_list put_periodic buf (Session.periodics session);
  Codec.put_list put_windowed buf (Session.windowed_views session);
  Codec.put_list put_detector buf (Session.named_detectors session)

let get_session ?jobs r =
  let db = Snapshot.get_db ?jobs r in
  let session = Session.of_db db in
  let chronicle = Db.chronicle db in
  let relation name = Versioned.relation (Db.relation db name) in
  ignore (Codec.list (get_periodic session ~chronicle ~relation) r);
  ignore (Codec.list (get_windowed session ~chronicle ~relation) r);
  ignore (Codec.list (get_detector session) r);
  session

let save session = Codec.encode put_session session

let load ?jobs data =
  match Codec.check_magic ~tag ~version data with
  | Error reason -> error "not a session snapshot: %s" reason
  | Ok n -> (
      let payload = String.sub data n (String.length data - n) in
      match Codec.decode (get_session ?jobs) payload with
      | Ok session -> session
      | Error reason -> error "malformed session snapshot: %s" reason
      | exception (Session_snapshot_error _ as e) -> raise e
      | exception e ->
          error "session snapshot does not load: %s" (Printexc.to_string e))

let save_file session path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (save session))

let load_file ?jobs path = load ?jobs (In_channel.with_open_bin path In_channel.input_all)
