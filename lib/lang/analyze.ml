open Relational
open Chronicle_core
module Staging = Chronicle_durability.Group

exception Semantic_error of string

let sem_error fmt = Format.kasprintf (fun s -> raise (Semantic_error s)) fmt

type exec_result =
  | Created of string
  | Defined of { view : string; report : Classify.report }
  | Defined_periodic of { view : string; live : int }
  | Defined_windowed of { view : string; buckets : int }
  | Appended of { chronicle : string; sn : Seqnum.t; count : int }
  | Retracted of { chronicle : string; count : int }
  | Inserted of { relation : string; count : int }
  | Defined_rule of { rule : string; chronicle : string }
  | Info of string
  | Advanced of Seqnum.chronon
  | Rows of Schema.t * Tuple.t list
  | Report of Classify.report

let pred_attrs_subset pred schema =
  List.for_all (Schema.mem schema) (Predicate.attrs pred)

(* ---- view definitions (the restricted language ℒ) ---- *)

let split_items items =
  List.partition_map
    (function
      | Ast.Col c -> Either.Left c
      | Ast.Agg { func; arg; alias } ->
          let alias =
            match alias with
            | Some a -> a
            | None -> (
                match arg with
                | Some a ->
                    String.lowercase_ascii (Aggregate.func_name func) ^ "_" ^ a
                | None -> String.lowercase_ascii (Aggregate.func_name func))
          in
          Either.Right { Aggregate.func; arg; alias })
    items

let summarize_of_items items group_by =
  let cols, aggs = split_items items in
  match aggs, group_by with
  | [], [] ->
      if cols = [] then sem_error "empty SELECT list";
      Sca.Project_out cols
  | [], _ :: _ ->
      sem_error "GROUP BY without aggregates: use a plain projection instead"
  | _ :: _, group_by ->
      List.iter
        (fun c ->
          if not (List.mem c group_by) then
            sem_error "column %s appears in SELECT but not in GROUP BY" c)
        cols;
      Sca.Group_agg (group_by, aggs)

let compile_select db ~name (s : Ast.select) =
  let chron =
    try Db.chronicle db s.Ast.chronicle
    with Db.Unknown msg -> sem_error "%s" msg
  in
  let chron_schema = Chron.schema chron in
  (* WHERE: split conjunctions, validate the Definition 4.1 form *)
  let conjunct_preds =
    match s.Ast.where with
    | None -> []
    | Some cond ->
        List.map
          (fun c ->
            let p = Ast.cond_to_predicate c in
            if not (Predicate.is_ca_form p) then
              sem_error
                "WHERE conjunct (%a) is not a disjunction of comparisons; \
                 the chronicle algebra (Definition 4.1) admits only such \
                 selections"
                Predicate.pp p;
            p)
          (Ast.conjuncts cond)
  in
  let pushable, lifted =
    List.partition (fun p -> pred_attrs_subset p chron_schema) conjunct_preds
  in
  let base =
    List.fold_left (fun e p -> Ca.Select (p, e)) (Ca.Chronicle chron) pushable
  in
  let body =
    match s.Ast.join with
    | None ->
        if lifted <> [] then
          sem_error "WHERE mentions attributes not in chronicle %s"
            s.Ast.chronicle;
        base
    | Some { Ast.rel; on } ->
        let versioned =
          try Db.relation db rel with Db.Unknown msg -> sem_error "%s" msg
        in
        let joined = Ca.KeyJoinRel (base, Versioned.relation versioned, on) in
        List.fold_left (fun e p -> Ca.Select (p, e)) joined lifted
  in
  Sca.define ~name ~body (summarize_of_items s.Ast.items s.Ast.group_by)

(* ---- ad-hoc queries over views and relations ---- *)

(* The group key a WHERE pins a persistent view to: a [col = literal]
   conjunct for every group-key column.  [View.lookup] builds its row
   from the key it is given, so each literal must be the stored value
   itself, not just an equal one: of the column's own type, and not a
   float (-0.0 finds the group of 0.0).  Anything else takes the scan. *)
let point_key v where =
  let schema = View.schema v in
  let pinned c =
    List.find_map
      (function
        | Ast.Cmp { left = Ast.Attr a; op = Predicate.Eq; right = Ast.Lit l }
        | Ast.Cmp { left = Ast.Lit l; op = Predicate.Eq; right = Ast.Attr a }
          when a = c -> (
            match Value.ty_of l with
            | Some (Value.TInt | Value.TStr | Value.TBool as ty)
              when Schema.ty schema c = ty ->
                Some l
            | Some _ | None -> None)
        | _ -> None)
      (Ast.conjuncts where)
  in
  let key = List.map pinned (Sca.group_attrs (View.def v)) in
  if List.for_all Option.is_some key then Some (List.map Option.get key)
  else None

(* A view's rows as a constant: when [where] pins its group key, only
   the one group [View.lookup] finds (the caller still applies the
   whole WHERE on top), otherwise every row. *)
let resolve_source ?where session name =
  let db = Session.db session in
  match Db.view db name with
  | v -> (
      match Option.bind where (point_key v) with
      | Some key -> Ra.Const (View.schema v, Option.to_list (View.lookup v key))
      | None -> Ra.Const (View.schema v, View.to_list v))
  | exception Db.Unknown _ -> (
      match Db.windowed db name with
      | Some wv -> Ra.Const (Sca.schema (Windowed_view.def wv), Windowed_view.to_list wv)
      | None -> (
          match Db.periodic db name with
          | Some family -> (
              let schema = Sca.schema (Periodic.def family) in
              match Periodic.current family with
              | Some (_, v) -> Ra.Const (schema, View.to_list v)
              | None -> Ra.Const (schema, []))
          | None -> (
              match Db.relation db name with
              | r -> Ra.Rel (Versioned.relation r)
              | exception Db.Unknown _ ->
                  sem_error
                    "%s is neither a view, a windowed/periodic view, nor a \
                     relation"
                    name)))

let compile_query session (q : Ast.query) =
  let joined =
    match q.Ast.q_join with
    | None -> resolve_source ?where:q.Ast.q_where session q.Ast.q_from
    | Some (rel, on) ->
        Ra.EquiJoin
          (on, resolve_source session q.Ast.q_from, resolve_source session rel)
  in
  let filtered =
    match q.Ast.q_where with
    | None -> joined
    | Some cond -> Ra.Select (Ast.cond_to_predicate cond, joined)
  in
  let cols, aggs = split_items q.Ast.q_items in
  match aggs, q.Ast.q_group with
  | [], [] ->
      if cols = [] then sem_error "empty SELECT list";
      Ra.Project (cols, filtered)
  | [], _ :: _ -> sem_error "GROUP BY without aggregates"
  | _ :: _, group ->
      List.iter
        (fun c ->
          if not (List.mem c group) then
            sem_error "column %s appears in SELECT but not in GROUP BY" c)
        cols;
      Ra.GroupBy (group, aggs, filtered)

(* ---- statements ---- *)

let schema_of_columns columns = Schema.make columns

let rows_to_tuples name schema rows =
  List.map
    (fun row ->
      let tu = Tuple.make row in
      if not (Tuple.type_check schema tu) then
        sem_error "row %a does not match the schema of %s" Tuple.pp tu name;
      tu)
    rows

let rec compile_pattern = function
  | Ast.Ev_atom (name, c) ->
      Pattern.atom (Option.value ~default:"e" name) (Ast.cond_to_predicate c)
  | Ast.Ev_seq (a, b) -> Pattern.Seq (compile_pattern a, compile_pattern b)
  | Ast.Ev_and (a, b) -> Pattern.And (compile_pattern a, compile_pattern b)
  | Ast.Ev_or (a, b) -> Pattern.Or (compile_pattern a, compile_pattern b)
  | Ast.Ev_repeat (n, p) ->
      if n < 1 then sem_error "REPEAT count must be at least 1";
      Pattern.repeat n (compile_pattern p)

let alert_schema =
  Schema.make
    [
      ("rule", Value.TStr); ("key", Value.TStr); ("started", Value.TInt);
      ("fired", Value.TInt); ("sn", Value.TInt);
    ]

let audit_schema =
  Schema.make [ ("view", Value.TStr); ("verdict", Value.TStr) ]

let stats_schema =
  Schema.make
    [ ("kind", Value.TStr); ("name", Value.TStr); ("metric", Value.TStr);
      ("value", Value.TInt) ]

let counters_schema =
  Schema.make [ ("counter", Value.TStr); ("value", Value.TInt) ]

let calendar_of_spec (spec : Ast.calendar_spec) =
  match spec.Ast.shape with
  | `Tiling -> Calendar.tiling ~start:spec.Ast.cal_start ~width:spec.Ast.cal_width
  | `Sliding -> Calendar.sliding ~start:spec.Ast.cal_start ~width:spec.Ast.cal_width
  | `Stride stride ->
      Calendar.periodic ~start:spec.Ast.cal_start ~width:spec.Ast.cal_width ~stride

(* Register a temporal reader; a refused definition registers nothing. *)
let define_temporal db def =
  try Db.define_temporal db def
  with Invalid_argument msg | Schema.Unknown_attribute msg | Db.Unknown msg ->
    sem_error "%s" msg

(* The statements that answer for themselves: all but [APPEND INTO]. *)
let run session stmt =
  let db = Session.db session in
  match stmt with
  | Ast.Create_chronicle { name; columns; retain } ->
      let retention =
        match retain with
        | None -> None
        | Some Ast.Retain_full -> Some Chron.Full
        | Some (Ast.Retain_window n) -> Some (Chron.Window n)
      in
      ignore (Db.add_chronicle db ?retention ~name (schema_of_columns columns));
      Created name
  | Ast.Create_relation { name; columns; key } ->
      ignore
        (Db.add_relation db ~name ~schema:(schema_of_columns columns) ~key ());
      Created name
  | Ast.Define_view { name; select } ->
      let def = compile_select db ~name select in
      ignore (Db.define_view db def);
      Defined { view = name; report = Classify.sca def }
  | Ast.Define_periodic { name; select; calendar; expire } ->
      let def = compile_select db ~name select in
      let family =
        Periodic.create ?expire_after:expire ~def
          ~calendar:(calendar_of_spec calendar) ()
      in
      define_temporal db (Db.Periodic_def { name; family });
      Defined_periodic { view = name; live = Periodic.live_views family }
  | Ast.Define_windowed { name; select; buckets; bucket_width } ->
      let def = compile_select db ~name select in
      let wv =
        try Windowed_view.derive ~bucket_width ~buckets def
        with Windowed_view.Not_derivable msg -> sem_error "%s" msg
      in
      define_temporal db (Db.Windowed_def { name; view = wv });
      Defined_windowed { view = name; buckets }
  | Ast.Retract_from { chronicle; rows } ->
      let c =
        try Db.chronicle db chronicle with Db.Unknown msg -> sem_error "%s" msg
      in
      let tuples = rows_to_tuples chronicle (Chron.user_schema c) rows in
      (* the statement barrier above already flushed staged appends, so
         the retraction sees every prior append committed *)
      let count =
        try Db.retract db chronicle tuples
        with
        | Invalid_argument msg | Chron.Not_retained msg -> sem_error "%s" msg
      in
      Retracted { chronicle; count }
  | Ast.Insert_into { relation; rows } ->
      let r =
        try Db.relation db relation with Db.Unknown msg -> sem_error "%s" msg
      in
      let schema = Relation.schema (Versioned.relation r) in
      let tuples = rows_to_tuples relation schema rows in
      (* through Db so the rows are journaled (Ev_insert) and survive
         crash recovery — never Versioned.insert directly *)
      (try Db.insert_rows db relation tuples
       with Invalid_argument msg -> sem_error "%s" msg);
      Inserted { relation; count = List.length tuples }
  | Ast.Load_csv { target; path } -> (
      (* each CSV record of a chronicle load is one transaction (its own
         sequence number); relation loads are plain inserts *)
      match Db.chronicle db target with
      | c ->
          let tuples =
            try Csv_io.load_file (Chron.user_schema c) path
            with
            | Csv_io.Csv_error { message; line; column } ->
                sem_error "%s:%d%s: %s" path line
                  (if column = 0 then "" else Printf.sprintf ":%d" column)
                  message
            | Sys_error msg -> sem_error "%s" msg
          in
          let stager = Session.stager session in
          let gname = Group.name (Chron.group c) in
          (* one append per record; the load stops at the first group
             that fails to commit *)
          let stage tu =
            let ticket = Staging.stage stager ~group:gname [ (target, [ tu ]) ] in
            match Staging.resolved ticket with
            | Some (Error e) -> raise e
            | Some (Ok _) | None -> ticket
          in
          let sn =
            match List.fold_left (fun _ tu -> Some (stage tu)) None tuples with
            | None -> Seqnum.zero
            | Some ticket -> (
                (* awaiting the last ticket flushes and resolves the
                   whole load *)
                match Staging.await stager ticket with
                | Ok sn -> sn
                | Error e -> raise e)
          in
          Appended { chronicle = target; sn; count = List.length tuples }
      | exception Db.Unknown _ -> (
          match Db.relation db target with
          | r ->
              let schema = Relation.schema (Versioned.relation r) in
              let tuples =
                try Csv_io.load_file schema path
                with
                | Csv_io.Csv_error { message; line; column } ->
                    sem_error "%s:%d%s: %s" path line
                      (if column = 0 then "" else Printf.sprintf ":%d" column)
                      message
                | Sys_error msg -> sem_error "%s" msg
              in
              (try Db.insert_rows db target tuples
               with Invalid_argument msg -> sem_error "%s" msg);
              Inserted { relation = target; count = List.length tuples }
          | exception Db.Unknown _ ->
              sem_error "%s is neither a chronicle nor a relation" target))
  | Ast.Define_rule { name; chronicle; key; within; cooldown; reset_on_match; pattern } ->
      define_temporal db
        (Db.Rule_def
           {
             chronicle;
             rule =
               Detector.rule ~name ~pattern:(compile_pattern pattern) ~key ?within
                 ?cooldown ~reset_on_match ();
           });
      Defined_rule { rule = name; chronicle }
  | Ast.Show_alerts ->
      let rows =
        List.concat_map
          (fun det ->
            List.map
              (fun (o : Detector.occurrence) ->
                Tuple.make
                  [
                    Value.Str o.Detector.rule;
                    Value.Str
                      (Format.asprintf "%a" Value.pp_list o.Detector.key_values);
                    Value.Int o.Detector.started_at;
                    Value.Int o.Detector.fired_at;
                    Value.Int o.Detector.fired_sn;
                  ])
              (Detector.occurrences det))
          (Db.detectors db)
        |> List.sort (fun a b ->
               Value.compare (Tuple.get a 4) (Tuple.get b 4))
      in
      Rows (alert_schema, rows)
  | Ast.Advance_clock chronon ->
      (try Db.advance_clock db chronon
       with Invalid_argument msg -> sem_error "%s" msg);
      Advanced chronon
  | Ast.Query q ->
      let expr = compile_query session q in
      let plan =
        try Plan.compile expr with Ra.Type_error msg -> sem_error "%s" msg
      in
      Rows (Plan.schema plan, Plan.run plan)
  | Ast.Show_view name ->
      let v = try Db.view db name with Db.Unknown msg -> sem_error "%s" msg in
      Rows (View.schema v, View.to_list v)
  | Ast.Show_classify name ->
      let v = try Db.view db name with Db.Unknown msg -> sem_error "%s" msg in
      Report (Classify.sca (View.def v))
  | Ast.Show_periodic { name; index } -> (
      match Db.periodic db name with
      | None -> sem_error "unknown periodic view %s" name
      | Some family -> (
          let schema = Sca.schema (Periodic.def family) in
          match index with
          | Some i -> (
              match Periodic.get family i with
              | Some v -> Rows (schema, View.to_list v)
              | None ->
                  sem_error "periodic view %s has no interval %d (never \
                             opened or already expired)" name i)
          | None -> (
              match Periodic.current family with
              | Some (_, v) -> Rows (schema, View.to_list v)
              | None -> Rows (schema, []))))
  | Ast.Drop_view name ->
      (try Db.drop_view db name with Db.Unknown msg -> sem_error "%s" msg);
      Created (name ^ " dropped")
  | Ast.Show_plan name ->
      let v = try Db.view db name with Db.Unknown msg -> sem_error "%s" msg in
      let def = View.def v in
      let body = Sca.body def in
      let optimized = Rewrite.optimize body in
      let report = Classify.sca def in
      Info
        (Format.asprintf
           "@[<v>view %s@,body:      %a@,optimized: %a%s@,summarize: %s@,%a@]"
           name Ca.pp body Ca.pp optimized
           (if Rewrite.size optimized = Rewrite.size body then ""
            else "  (rewritten)")
           (match Sca.summarize def with
           | Sca.Project_out attrs ->
               Printf.sprintf "project out -> (%s)" (String.concat ", " attrs)
           | Sca.Group_agg (gl, al) ->
               Format.asprintf "group by (%s) computing %a"
                 (String.concat ", " gl)
                 (Format.pp_print_list
                    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
                    Aggregate.pp_call)
                 al)
           Classify.pp_report report)
  | Ast.Show_audit ->
      let rows =
        List.map
          (fun (name, verdict) ->
            Tuple.make
              [
                Value.Str name;
                Value.Str (Format.asprintf "%a" Audit.pp_verdict verdict);
              ])
          (Audit.check_db db)
      in
      Rows (audit_schema, rows)
  | Ast.Show_stats ->
      let row kind name metric value =
        Tuple.make [ Value.Str kind; Value.Str name; Value.Str metric; Value.Int value ]
      in
      let chron_rows =
        List.concat_map
          (fun name ->
            let c = Db.chronicle db name in
            [
              row "chronicle" name "appended" (Chron.total_appended c);
              row "chronicle" name "retained" (Chron.stored_count c);
            ])
          (Db.chronicle_names db)
      in
      let rel_rows =
        List.map
          (fun name ->
            row "relation" name "rows"
              (Relation.cardinality (Versioned.relation (Db.relation db name))))
          (Db.relation_names db)
      in
      let view_rows =
        List.concat_map
          (fun v ->
            let name = View.name v in
            [
              row "view" name "rows" (View.size v);
              row "view" name "batches" (View.maintained_batches v);
            ])
          (Registry.views (Db.registry db))
      in
      let registry_rows =
        [
          row "registry" "guards" "checked" (Registry.checked (Db.registry db));
          row "registry" "guards" "skipped" (Registry.skipped (Db.registry db));
        ]
      in
      Rows (stats_schema, chron_rows @ rel_rows @ view_rows @ registry_rows)
  | Ast.Show_counters ->
      let rows =
        List.map
          (fun c ->
            Tuple.make
              [ Value.Str (Stats.counter_name c); Value.Int (Stats.get c) ])
          Stats.all
      in
      Rows (counters_schema, rows)
  | Ast.Show_windowed name -> (
      match Db.windowed db name with
      | None -> sem_error "unknown windowed view %s" name
      | Some wv ->
          Rows (Sca.schema (Windowed_view.def wv), Windowed_view.to_list wv))
  | Ast.Set_batch n ->
      (try Session.set_batch session n
       with Invalid_argument msg -> sem_error "%s" msg);
      Info (Printf.sprintf "batch size set to %d" n)
  | Ast.Flush ->
      (* the barrier in [exec] already drained the queue *)
      Info "flushed"
  | Ast.Append_into _ -> assert false (* [exec] stages appends *)

let exec session stmt =
  match stmt with
  | Ast.Append_into { chronicle; rows } ->
      (* no barrier: the append joins the staging queue, and its answer
         is its ack there *)
      let c =
        try Db.chronicle (Session.db session) chronicle
        with Db.Unknown msg -> sem_error "%s" msg
      in
      let tuples = rows_to_tuples chronicle (Chron.user_schema c) rows in
      (try Session.append session ~statement:true chronicle tuples
       with Invalid_argument msg -> sem_error "%s" msg);
      None
  | stmt ->
      (* Group-commit barrier: every other statement flushes the
         session's staging queue first, so nothing — reads, relation
         updates, clock advances, definitions — can observe the database
         with a staged append missing.  Under the default batch
         threshold of 1 the queue is always empty and this is free. *)
      Session.flush session;
      Some (run session stmt)

let appended { Session.chronicle; count; outcome; _ } =
  match outcome with
  | Ok sn -> Appended { chronicle; sn; count }
  | Error e -> raise e

let run_script session src =
  let acked () = List.map appended (Session.acks session) in
  let results =
    List.concat_map
      (fun stmt ->
        let result = exec session stmt in
        acked () @ Option.to_list result)
      (Parser.parse src)
  in
  Session.flush session;
  results @ acked ()

let pp_result ppf = function
  | Created name -> Format.fprintf ppf "created %s" name
  | Defined { view; report } ->
      Format.fprintf ppf "defined view %s: %s (%s)" view
        (Classify.tier_name report.Classify.tier)
        (Classify.im_class_name report.Classify.view_im)
  | Defined_periodic { view; live } ->
      Format.fprintf ppf "defined periodic view %s (%d interval views live)"
        view live
  | Defined_windowed { view; buckets } ->
      Format.fprintf ppf "defined windowed view %s (%d buckets)" view buckets
  | Appended { chronicle; sn; count } ->
      Format.fprintf ppf "appended %d row(s) to %s at sn %a" count chronicle
        Seqnum.pp sn
  | Retracted { chronicle; count } ->
      Format.fprintf ppf "retracted %d row(s) from %s" count chronicle
  | Inserted { relation; count } ->
      Format.fprintf ppf "inserted %d row(s) into %s" count relation
  | Defined_rule { rule; chronicle } ->
      Format.fprintf ppf "defined rule %s on %s" rule chronicle
  | Advanced chronon -> Format.fprintf ppf "clock advanced to %d" chronon
  | Info text -> Format.pp_print_string ppf text
  | Rows (schema, []) -> Schema.pp ppf schema
  | Rows (schema, tuples) ->
      Format.fprintf ppf "@[<v>%a@,%a@]" Schema.pp schema
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut
           (Tuple.pp_with schema))
        tuples
  | Report r -> Classify.pp_report ppf r
