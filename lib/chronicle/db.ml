open Relational

exception Unknown of string
exception Read_only of string

(* A catalog entry that folds appends after commit: a periodic-view
   family (§5.1), a derived moving-window view, or an event rule on a
   chronicle (§6). *)
type temporal =
  | Periodic_def of { name : string; family : Periodic.t }
  | Windowed_def of { name : string; view : Windowed_view.t }
  | Rule_def of { chronicle : string; rule : Detector.rule }

(* Catalog changes and transactions, as seen by a durability layer.  The
   sink (when installed — see {!set_txn_sink}) receives [Ev_append]
   *before* any state mutates (write-ahead), [Ev_abort] when a batch is
   rolled back, and the DDL/clock events after the catalog operation
   succeeds. *)
type txn_event =
  | Ev_append of {
      group : string;
      sn : Seqnum.t;
      batch : (string * Tuple.t list) list;
    }
  | Ev_group of {
      group : string;
      entries : (Seqnum.t * (string * Tuple.t list) list) list;
    }
  | Ev_insert of { relation : string; rows : Tuple.t list; at : int }
  | Ev_retract of {
      chronicle : string;
      entries : (Seqnum.t * Tuple.t list) list;
    }
  | Ev_clock of { group : string; chronon : Seqnum.chronon }
  | Ev_add_group of { name : string; clock_start : Seqnum.chronon option }
  | Ev_add_chronicle of {
      name : string;
      group : string;
      retention : Chron.retention;
      schema : Schema.t;
    }
  | Ev_add_relation of {
      name : string;
      group : string;
      schema : Schema.t;
      key : string list option;
    }
  | Ev_define_view of { def : Sca.t; index : Index.kind }
  | Ev_drop_view of { name : string }
  | Ev_define_temporal of temporal
  | Ev_abort of { group : string; sn : Seqnum.t }

type t = {
  groups : (string, Group.t) Hashtbl.t;
  chronicles : (string, Chron.t) Hashtbl.t;
  relations : (string, Versioned.t) Hashtbl.t;
  registry : Registry.t;
  default_group : string;
  pool : Exec.Pool.t;
      (* the Δ-maintenance executor: [jobs = 1] (default) keeps the
         historical strictly-sequential transaction path; [jobs > 1]
         partitions the affected views of each batch across domains *)
  periodics : (string, Periodic.t) Hashtbl.t;
  windows : (string, Windowed_view.t) Hashtbl.t;
  detectors : (string, Detector.t) Hashtbl.t; (* by chronicle name *)
  mutable txn_sink : (txn_event -> unit) option;
  mutable fold_probe : (view:string -> sn:Seqnum.t -> unit) option;
  mutable read_only : string option;
      (* degraded mode: [Some reason] rejects every mutation with
         [Read_only] while queries keep serving — set by salvage
         recovery and by the durability layer when it can no longer
         guarantee that writes reach stable storage *)
}

let unknown kind name =
  raise (Unknown (Printf.sprintf "%s %S is not in the catalog" kind name))

let create ?(default_group = "main") ?(jobs = 1) () =
  let t =
    {
      groups = Hashtbl.create 4;
      chronicles = Hashtbl.create 16;
      relations = Hashtbl.create 16;
      registry = Registry.create ();
      default_group;
      pool = Exec.Pool.create ~jobs ();
      periodics = Hashtbl.create 8;
      windows = Hashtbl.create 8;
      detectors = Hashtbl.create 8;
      txn_sink = None;
      fold_probe = None;
      read_only = None;
    }
  in
  Hashtbl.add t.groups default_group (Group.create default_group);
  t

let jobs t = Exec.Pool.jobs t.pool
let pool t = t.pool

let set_txn_sink t sink = t.txn_sink <- sink
let set_fold_probe t probe = t.fold_probe <- probe
let emit t ev = match t.txn_sink with Some f -> f ev | None -> ()

let set_read_only t reason = t.read_only <- reason
let read_only t = t.read_only

let check_writable t op =
  match t.read_only with
  | Some reason ->
      raise
        (Read_only (Printf.sprintf "Db.%s: database is read-only (%s)" op reason))
  | None -> ()

let add_group t ?clock_start name =
  check_writable t "add_group";
  if Hashtbl.mem t.groups name then
    invalid_arg (Printf.sprintf "Db.add_group: group %S already exists" name);
  let g = Group.create ?clock_start name in
  Hashtbl.add t.groups name g;
  emit t (Ev_add_group { name; clock_start });
  g

let group t name =
  match Hashtbl.find_opt t.groups name with
  | Some g -> g
  | None -> unknown "group" name

let default_group t = group t t.default_group

let add_chronicle t ?group:gname ?retention ~name schema =
  check_writable t "add_chronicle";
  if Hashtbl.mem t.chronicles name then
    invalid_arg (Printf.sprintf "Db.add_chronicle: %S already exists" name);
  let gname = Option.value ~default:t.default_group gname in
  let g = group t gname in
  let c = Chron.create ~group:g ?retention ~name schema in
  Hashtbl.add t.chronicles name c;
  emit t
    (Ev_add_chronicle
       { name; group = gname; retention = Chron.retention c; schema });
  c

let chronicle t name =
  match Hashtbl.find_opt t.chronicles name with
  | Some c -> c
  | None -> unknown "chronicle" name

let add_relation t ?group:gname ~name ~schema ?key () =
  check_writable t "add_relation";
  if Hashtbl.mem t.relations name then
    invalid_arg (Printf.sprintf "Db.add_relation: %S already exists" name);
  let gname = Option.value ~default:t.default_group gname in
  let g = group t gname in
  let r = Versioned.create ~group:g ~name ~schema ?key () in
  Hashtbl.add t.relations name r;
  emit t (Ev_add_relation { name; group = gname; schema; key });
  r

let relation t name =
  match Hashtbl.find_opt t.relations name with
  | Some r -> r
  | None -> unknown "relation" name

let names_of tbl =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) tbl [])

let group_names t = names_of t.groups
let chronicle_names t = names_of t.chronicles
let relation_names t = names_of t.relations

let define_view t ?index ?(tier_limit = Classify.IM_poly_r) def =
  check_writable t "define_view";
  let report = Classify.sca def in
  if not (Classify.im_subseteq report.Classify.view_im tier_limit) then
    raise
      (Ca.Ill_formed
         (Format.asprintf
            "view %s is in %s, outside this database's limit %s:@ %a"
            (Sca.name def)
            (Classify.im_class_name report.Classify.view_im)
            (Classify.im_class_name tier_limit)
            Classify.pp_report report));
  let body = Sca.body def in
  let has_history =
    List.exists (fun c -> Chron.total_appended c > 0) (Ca.chronicles body)
  in
  let view =
    if has_history then
      (* bulk materialization over retained history: the one
         sequential evaluator, at every [jobs] *)
      match Eval.eval body with
      | initial -> View.of_initial ?index def initial
      | exception Chron.Not_retained msg ->
          raise
            (Ca.Ill_formed
               (Printf.sprintf
                  "view %s cannot be initialized: %s.  Define views before \
                   appending, or give the chronicle a retention policy that \
                   still covers its history"
                  (Sca.name def) msg))
    else View.create ?index def
  in
  Registry.register t.registry view;
  emit t (Ev_define_view { def; index = View.index_kind view });
  view

let view t name =
  match Registry.find t.registry name with
  | Some v -> v
  | None -> unknown "view" name

let drop_view t name =
  check_writable t "drop_view";
  match Registry.find t.registry name with
  | Some _ ->
      Registry.unregister t.registry name;
      emit t (Ev_drop_view { name })
  | None -> unknown "view" name

let views t = Registry.views t.registry
let classify_view t name = Classify.sca (View.def (view t name))
let registry t = t.registry

(* ---- temporal readers ----

   Periodic families, windowed views and event detectors fold each
   committed append after the transaction, in record order.  They see
   appends only: a retraction that reaches one is refused. *)

let sorted_bindings tbl =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let periodic t name = Hashtbl.find_opt t.periodics name
let windowed t name = Hashtbl.find_opt t.windows name
let detector t cname = Hashtbl.find_opt t.detectors cname
let periodics t = sorted_bindings t.periodics
let windowed_views t = sorted_bindings t.windows
let detectors t = List.map snd (sorted_bindings t.detectors)

let has_temporal_readers t =
  Hashtbl.length t.periodics + Hashtbl.length t.windows + Hashtbl.length t.detectors
  > 0

let add_detector t det =
  let cname = Chron.name (Detector.chronicle det) in
  if Hashtbl.mem t.detectors cname then
    invalid_arg (Printf.sprintf "Db.add_detector: %s already has a detector" cname);
  Hashtbl.add t.detectors cname det

let define_temporal t def =
  check_writable t "define_temporal";
  let fresh kind tbl name =
    if Hashtbl.mem tbl name then
      invalid_arg (Printf.sprintf "Db.define_temporal: %s %s already exists" kind name)
  in
  (match def with
  | Periodic_def { name; family } ->
      fresh "periodic view" t.periodics name;
      Hashtbl.add t.periodics name family
  | Windowed_def { name; view } ->
      fresh "windowed view" t.windows name;
      Hashtbl.add t.windows name view
  | Rule_def { chronicle = cname; rule } ->
      let det =
        match detector t cname with
        | Some det -> det
        | None -> Detector.create (chronicle t cname)
      in
      Detector.add_rule det rule;
      Hashtbl.replace t.detectors cname det);
  emit t (Ev_define_temporal def)

(* The first temporal reader of [c], named for an error message. *)
let first_temporal_reader t c =
  let reads def = List.memq c (Ca.chronicles (Sca.body def)) in
  let readers kind def tbl =
    List.filter_map
      (fun (name, v) -> if reads (def v) then Some (kind ^ " " ^ name) else None)
      (sorted_bindings tbl)
  in
  let rules =
    match detector t (Chron.name c) with
    | Some det -> List.map (fun r -> "rule " ^ r.Detector.rule_name) (Detector.rules det)
    | None -> []
  in
  List.nth_opt
    (readers "periodic view" Periodic.def t.periodics
    @ readers "windowed view" Windowed_view.def t.windows
    @ rules)
    0

(* ---- the write operation ----

   The paper's database has one write: append a batch to a chronicle
   group at the next sequence number, then maintain every affected
   persistent view incrementally.  A retraction is the same write with
   the opposite sign: the batch is the minus half of a Z-set delta
   ({!Delta.zset}) at the sequence number it was appended under.  A
   live append, a group commit, the journal's final record, a recovery
   replay window and a retraction are all that operation over a list of
   [(sn, Z-set batch)] entries, built from three pieces:

   - [validate], the one batch check, run before anything is journaled;
   - [record_and_fold], the step: record each entry in order (store its
     plus half or remove its minus half, list the affected views with
     their folds), then fold every affected view as one chain of folds
     on the pool ([fold_chains]);
   - the [transaction] wrapped around the step for live writes and the
     journal's final record: write-ahead event → chronicle, relation
     and view marks → step → commit, or roll everything back and emit
     [Ev_abort], so a journal can erase the write-ahead record, and
     re-raise.  After an append's commit, [bracket] folds the temporal
     readers, in record order.

   Replay windows run the step bare: no marks (a ring chronicle's undo
   list does not grow with the window), no write-ahead event, and a
   failure leaves the database partially replayed for the caller
   (recovery) to discard. *)

let dedup_affected views =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      let name = View.name v in
      if Hashtbl.mem seen name then false
      else begin
        Hashtbl.add seen name ();
        true
      end)
    views

exception Entry_failed of { index : int; error : exn }

let unwrap = function Entry_failed { error; _ } -> error | e -> e

let validate t ~op g batch =
  if batch = [] then invalid_arg (Printf.sprintf "Db.%s: empty batch" op);
  List.map
    (fun (cname, tuples) ->
      let c = chronicle t cname in
      if not (Group.same (Chron.group c) g) then
        invalid_arg
          (Printf.sprintf "Db.%s: chronicle %s is not in group %s" op
             (Chron.name c) (Group.name g));
      Chron.check_batch c tuples;
      (c, { Delta.plus = tuples; minus = [] }))
    batch

let validate_batch t ?group:gname batch =
  let g = group t (Option.value ~default:t.default_group gname) in
  ignore (validate t ~op:"append" g batch)

(* An entry is all plus (an append at a fresh [sn]) or all minus (a
   retraction of user rows stored under [sn]). *)
type entry = { g : Group.t; sn : Seqnum.t; batch : Delta.change }

let pending_updates t =
  Hashtbl.fold (fun _ r acc -> acc || Versioned.pending_count r > 0) t.relations false

let reads_history_view v = Ca.reads_history (Sca.body (View.def v))

let affected t half delta =
  dedup_affected
    (List.concat_map (fun (c, z) -> Registry.affected t.registry c (half z)) delta)

(* What a re-probe of the groups [keys] of [v] refolds: the body output
   over the already-mutated base, for at least those groups.  For a
   MIN/MAX view whose group-key attributes are all columns of the
   body's one chronicle, reached through selections, projections and
   joins with relations, only the stored rows holding those keys can
   land in those groups: the body runs over just them, found through
   the chronicle's index on the key columns (built here, before the
   folds start, so a fold only reads it).  Otherwise the body runs over
   all retained history. *)
let reprobe_source v =
  let body = Sca.body (View.def v) in
  let everything _ = Eval.eval body in
  match Sca.summarize (View.def v) with
  | Sca.Group_agg (gl, al)
    when gl <> []
         && List.exists
              (fun (c : Aggregate.call) -> c.func = Min || c.func = Max)
              al -> (
      let sources = List.map (Ca.column_source body) gl in
      match sources with
      | Some (c, _) :: _ when List.for_all Option.is_some sources ->
          let cols =
            Array.of_list (List.map (fun s -> snd (Option.get s)) sources)
          in
          let rows = Chron.matching c ~cols in
          fun keys -> Eval.eval_over body c (rows (List.map Array.of_list keys))
      | _ -> everything)
  | Sca.Group_agg _ | Sca.Project_out _ -> everything

(* Each view's plan, and the memo the entry's folds share. *)
let planned views =
  let plans = List.map (fun v -> (v, View.plan v)) views in
  (plans, Delta.memo (List.map snd plans))

(* Record one entry: the recorded delta and each affected view's fold.
   A plus entry claims [sn], stores its batch and flushes the relation
   updates that have come due (they are proactive for [sn]: they take
   effect before this batch's folds).  A minus entry first captures,
   per view, the at-[sn] slices (only for plans that read them) and the
   re-probe source, then removes its rows; each fold reads the slices
   again after the removal.  History readers have no minus fold: the
   retraction rematerializes them.  The folds of one entry share a
   memo ({!Delta.memo}), so a key-join stage their plans share runs
   once for the entry; it lives as long as the folds. *)
let record t { g; sn; batch } =
  if List.for_all (fun (_, z) -> z.Delta.minus = []) batch then begin
    Group.claim_sn g sn;
    let delta =
      List.map (fun (c, z) -> (c, { z with Delta.plus = Chron.record c sn z.Delta.plus })) batch
    in
    Hashtbl.iter (fun _ r -> Versioned.flush_pending r ~upto:(sn - 1)) t.relations;
    let plans, memo = planned (affected t (fun z -> z.Delta.plus) delta) in
    ( delta,
      List.map
        (fun (v, plan) -> (v, fun () -> View.apply v (Delta.stream plan ~sn ~memo delta)))
        plans )
  end
  else begin
    let delta =
      List.map
        (fun (c, z) -> (c, { z with Delta.minus = List.map (Chron.tag sn) z.Delta.minus }))
        batch
    in
    let plans, memo =
      planned
        (List.filter
           (fun v -> not (reads_history_view v))
           (affected t (fun z -> z.Delta.minus) delta))
    in
    let fold (v, plan) =
      let slices () =
        if Delta.reads_slices plan then
          List.map (fun c -> (c, Chron.at_sn c sn)) (Ca.chronicles (Delta.expr plan))
        else []
      in
      let before = slices () and reprobe = reprobe_source v in
      ( v,
        fun () ->
          View.apply ~reprobe v
            (Delta.stream plan ~sn ~memo ~before ~after:(slices ()) delta) )
    in
    let folds = List.map fold plans in
    List.iter (fun (c, z) -> Chron.remove_stored c sn z.Delta.minus) batch;
    (delta, folds)
  end

(* One view's fold at [sn], announced to the fold probe first. *)
let fold_link t v ~sn fold () =
  (match t.fold_probe with Some probe -> probe ~view:(View.name v) ~sn | None -> ());
  fold ()

(* The fold scheduler.  A chain is one view's folds in record order —
   the mandatory per-view ordering; distinct views' chains share only
   read-only inputs (recorded batches, chronicle history, relation
   states) and the atomic [Stats] counters, so they run across the
   pool.  A link is [(entry index, fold)].  A failure cuts every link
   not yet started that comes after it in (index, chain) order — work
   the caller would discard — so at [jobs = 1] a single batch stops at
   its first failing view, as a sequential loop would; and the failure
   re-raised as [Entry_failed] is the lowest in that order, which does
   not depend on scheduling. *)
let fold_chains t chains =
  let n = Array.length chains in
  let cut = Atomic.make max_int in
  let rec lower key =
    let c = Atomic.get cut in
    if key < c && not (Atomic.compare_and_set cut c key) then lower key
  in
  let failures =
    Exec.Pool.run_chains t.pool
      (Array.mapi
         (fun c links ->
           Array.map
             (fun (index, fold) () ->
               let key = (index * n) + c in
               if key < Atomic.get cut then
                 try fold ()
                 with error ->
                   lower key;
                   raise (Entry_failed { index; error }))
             links)
         chains)
  in
  let key = Atomic.get cut in
  if key < max_int then raise (Option.get failures.(key mod n))

(* Fold recorded entries [(index, sn, delta, folds)], one chain per
   view in order of first appearance — deterministic, since recording
   runs in entry order and [Registry.affected] lists views in
   registration order.  [open_view] runs on the submitting domain for
   each view before the pool touches anything. *)
let fold_recorded t ~open_view recs =
  let order = ref [] and links = Hashtbl.create 8 in
  List.iter
    (fun (index, sn, _, folds) ->
      List.iter
        (fun (v, fold) ->
          let name = View.name v in
          let cell =
            match Hashtbl.find_opt links name with
            | Some cell -> cell
            | None ->
                let cell = ref [] in
                Hashtbl.add links name cell;
                order := (v, cell) :: !order;
                cell
          in
          cell := (index, fold_link t v ~sn fold) :: !cell)
        folds)
    recs;
  let order = List.rev !order in
  List.iter (fun (v, _) -> open_view v) order;
  fold_chains t
    (Array.of_list (List.map (fun (_, cell) -> Array.of_list (List.rev !cell)) order))

(* The record-and-fold step over [items], in order.  [prepare] turns an
   item into the entry to record, or [None] to skip it (replay's
   idempotence check); its failures, like recording's and folding's,
   raise [Entry_failed] with the item's index.  Recorded entries are
   folded at a barrier: after every entry when [interleave] (a later
   batch's due relation updates must not be visible to an earlier
   batch's fold; a retraction's re-probes and slices read the chronicle
   as its own entry left it), after any entry that affects a
   history-reading view (recording further could evict the
   ring-retained tuples its fold still reads), and at the end.
   [folded] then sees the barrier's entries as [(sn, recorded delta)],
   in record order. *)
let record_and_fold t ~open_view ~interleave ~folded prepare items =
  let recorded = ref [] in
  let barrier () =
    match List.rev !recorded with
    | [] -> ()
    | recs ->
        recorded := [];
        fold_recorded t ~open_view recs;
        folded (List.map (fun (_, sn, delta, _) -> (sn, delta)) recs)
  in
  List.iteri
    (fun index item ->
      let indexed f =
        try f () with error -> raise (Entry_failed { index; error })
      in
      match indexed (fun () -> prepare index item) with
      | None -> ()
      | Some e ->
          let delta, folds = indexed (fun () -> record t e) in
          recorded := (index, e.sn, delta, folds) :: !recorded;
          if interleave || List.exists (fun (v, _) -> reads_history_view v) folds then
            barrier ())
    items;
  barrier ()

(* Every entry's temporal folds, walking the entries in record order. *)
let announce t recorded =
  if has_temporal_readers t then
    List.iter
      (fun (sn, delta) ->
        let batch = List.map (fun (c, z) -> (c, z.Delta.plus)) delta in
        List.iter (fun (_, p) -> Periodic.note_append p ~sn ~batch) (periodics t);
        List.iter (fun (_, w) -> Windowed_view.note_append w ~sn ~batch) (windowed_views t);
        List.iter
          (fun (c, tagged) ->
            Option.iter (fun det -> Detector.observe det ~sn tagged) (detector t (Chron.name c)))
          batch)
      recorded

(* The abort tail every write bracket shares, after its state is rolled
   back: count the rollback, let the journal erase the write-ahead
   record, re-raise. *)
let abort t g ~sn e =
  Stats.incr Stats.Rollback;
  emit t (Ev_abort { group = Group.name g; sn });
  raise e

(* The one write bracket: write-ahead [event] → marks on [chrons] and
   every relation → [step ~open_view], where [open_view] starts a
   view's undo log before anything folds it → commit, or roll every
   mark and opened view back and [abort] at [sn]. *)
let transaction t g ~sn ~event ~chrons step =
  emit t event;
  let wm = Group.watermark g in
  let chron_marks = List.map (fun c -> (c, Chron.mark c)) chrons in
  let rel_marks =
    Hashtbl.fold (fun _ r acc -> (r, Versioned.mark r) :: acc) t.relations []
  in
  let begun = ref [] and begun_names = Hashtbl.create 8 in
  let open_view v =
    let name = View.name v in
    if not (Hashtbl.mem begun_names name) then begin
      Hashtbl.add begun_names name ();
      View.begin_txn v;
      begun := v :: !begun
    end
  in
  match step ~open_view with
  | () ->
      List.iter View.commit_txn !begun;
      List.iter (fun (r, _) -> Versioned.commit r) rel_marks;
      List.iter (fun (c, _) -> Chron.commit c) chron_marks
  | exception e ->
      List.iter View.rollback_txn !begun;
      List.iter (fun (r, m) -> Versioned.rollback r m) rel_marks;
      List.iter (fun (c, m) -> Chron.rollback c m) chron_marks;
      Group.rollback_watermark g wm;
      abort t g ~sn (unwrap e)

(* [entries]: non-empty, validated, sequence numbers strictly increasing
   above [g]'s watermark.  [grouped] journals them as one [Ev_group]
   and counts a group commit; otherwise the single entry is an
   [Ev_append]. *)
let bracket t g ~grouped entries =
  let named = List.map (fun (c, z) -> (Chron.name c, z.Delta.plus)) in
  let event =
    match entries with
    | [ { sn; batch; _ } ] when not grouped ->
        Ev_append { group = Group.name g; sn; batch = named batch }
    | _ ->
        Ev_group
          {
            group = Group.name g;
            entries = List.map (fun e -> (e.sn, named e.batch)) entries;
          }
  in
  let chrons =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc (c, _) -> if List.memq c acc then acc else c :: acc)
          acc e.batch)
      [] entries
  in
  let recorded = ref [] in
  transaction t g ~sn:(List.hd entries).sn ~event ~chrons (fun ~open_view ->
      record_and_fold t ~open_view ~interleave:(pending_updates t)
        ~folded:(fun recs -> recorded := List.rev_append recs !recorded)
        (fun _ e -> Some e)
        entries);
  if grouped then begin
    Stats.incr Stats.Group_commit;
    Stats.record_max Stats.Group_size_max (List.length entries)
  end;
  announce t (List.rev !recorded)

(* Live appends take the sequence numbers after the watermark. *)
let append_live t ~op ~grouped g batches =
  check_writable t op;
  let batches = List.map (validate t ~op g) batches in
  let wm = Group.watermark g in
  let entries = List.mapi (fun i batch -> { g; sn = wm + 1 + i; batch }) batches in
  bracket t g ~grouped entries;
  List.map (fun e -> e.sn) entries

let append t cname tuples =
  let g = Chron.group (chronicle t cname) in
  List.hd (append_live t ~op:"append" ~grouped:false g [ [ (cname, tuples) ] ])

let append_multi t ?group:gname batch =
  let g = group t (Option.value ~default:t.default_group gname) in
  List.hd (append_live t ~op:"append" ~grouped:false g [ batch ])

let append_group t ?group:gname batches =
  let g = group t (Option.value ~default:t.default_group gname) in
  if batches = [] then invalid_arg "Db.append_group: empty group";
  append_live t ~op:"append_group" ~grouped:true g batches

(* ---- replay ---- *)

type replay_entry = {
  rgroup : string;
  rsn : Seqnum.t;
  rbatch : (string * Tuple.t list) list;
}

let replay_record t ~grouped entries =
  check_writable t "replay_record";
  let gname =
    match entries with
    | [ { rgroup; _ } ] -> rgroup
    | { rgroup; _ } :: _ when grouped -> rgroup
    | _ ->
        invalid_arg
          "Db.replay_record: an append record holds one entry, a group record \
           at least one"
  in
  let g = group t gname in
  List.iter
    (fun { rgroup; _ } ->
      if rgroup <> gname then
        invalid_arg
          (Printf.sprintf
             "Db.replay_record: mixed groups in one record (%s vs %s)" gname
             rgroup))
    entries;
  (* entries at or below the watermark are already covered by the
     checkpoint (recovery idempotence); the rest apply in order *)
  let wm = Group.watermark g in
  (match List.filter (fun { rsn; _ } -> rsn > wm) entries with
  | [] -> ()
  | live ->
      ignore
        (List.fold_left
           (fun prev { rsn; _ } ->
             if rsn <= prev then
               raise (Group.Stale_sequence_number { given = rsn; watermark = prev });
             rsn)
           wm live);
      bracket t g ~grouped
        (List.map
           (fun { rsn; rbatch; _ } ->
             { g; sn = rsn; batch = validate t ~op:"replay_record" g rbatch })
           live));
  Array.of_list (List.map (fun { rsn; _ } -> rsn > wm) entries)

let replay_appends t entries =
  check_writable t "replay_appends";
  let outcomes = Array.make (List.length entries) false in
  let prepare index { rgroup; rsn; rbatch } =
    let g = group t rgroup in
    if rsn <= Group.watermark g then None
    else begin
      outcomes.(index) <- true;
      Some { g; sn = rsn; batch = validate t ~op:"replay_appends" g rbatch }
    end
  in
  (* temporal readers fold each batch before the next is recorded, as in
     a live run: they force the interleaved order *)
  record_and_fold t ~open_view:ignore
    ~interleave:(pending_updates t || has_temporal_readers t)
    ~folded:(announce t) prepare entries;
  outcomes

(* Relation-row inserts follow the same write-ahead discipline as
   appends: validate every row, emit [Ev_insert] carrying the relation's
   pre-insert cardinality (the replay-idempotence marker: a checkpoint
   taken after the insert already holds the rows, and its cardinality
   exceeds [at], so recovery skips the record), then mutate under an
   undo mark.  A failure mid-batch (e.g. a key violation on a later row)
   rolls the relation back and aborts — rows land all-or-nothing. *)
let insert_rows t rname rows =
  check_writable t "insert_rows";
  let r = relation t rname in
  let rel = Versioned.relation r in
  let schema = Relation.schema rel in
  List.iter
    (fun row ->
      if not (Tuple.type_check schema row) then
        invalid_arg
          (Printf.sprintf "Db.insert_rows: row does not match the schema of %s"
             rname))
    rows;
  if rows <> [] then begin
    emit t (Ev_insert { relation = rname; rows; at = Relation.cardinality rel });
    let m = Versioned.mark r in
    match List.iter (fun row -> Versioned.insert r row) rows with
    | () -> Versioned.commit r
    | exception e ->
        Versioned.rollback r m;
        let g = Versioned.group r in
        abort t g ~sn:(Group.watermark g) e
  end

(* ---- the retraction path ----

   Retraction removes stored occurrences from a Full-retention
   chronicle and propagates the change to the persistent views as the
   minus half of a delta: COUNT/SUM-class aggregates invert in O(1) per
   group, MIN/MAX groups that lose their extremum re-probe retained
   history (only their own rows, where the group key is a chronicle
   column), and views whose bodies read history outright
   ([Ca.CrossChron]/[Ca.ThetaJoinChron]) are rematerialized.  It is the
   record-and-fold step over minus entries in one [transaction] —
   write-ahead [Ev_retract], marks, folds through [fold_link] on the
   fold scheduler, commit or logical undo and [abort] — so its cost
   follows the rows retracted, not |C| or |V|, apart from the re-probes
   and rematerializations. *)

(* Apply fully resolved retraction entries ([(sn, user rows)] with sn
   ascending) as one transaction. *)
let retract_resolved t c entries =
  let readers =
    List.filter reads_history_view
      (dedup_affected
         (List.concat_map
            (fun (sn, rows) ->
              Registry.affected t.registry c (List.map (Chron.tag sn) rows))
            entries))
  in
  let g = Chron.group c in
  let last_sn = fst (List.nth entries (List.length entries - 1)) in
  transaction t g ~sn:(Group.watermark g)
    ~event:(Ev_retract { chronicle = Chron.name c; entries })
    ~chrons:[ c ]
    (fun ~open_view ->
      record_and_fold t ~open_view ~interleave:true ~folded:ignore
        (fun _ (sn, rows) ->
          Some { g; sn; batch = [ (c, { Delta.plus = []; minus = rows }) ] })
        entries;
      (* a history reader's old output depended on history that has
         just changed: a delta cannot unwind it, so it is rebuilt from
         retained history, as a fold at the last entry *)
      List.iter
        (fun v ->
          open_view v;
          fold_link t v ~sn:last_sn
            (fun () ->
              View.replace v (Eval.eval (Sca.body (View.def v))))
            ())
        readers);
  Stats.incr Stats.Retract_apply

(* [rows] without its first element equal to [row], if it has one. *)
let take_one row rows =
  let rec go seen = function
    | [] -> None
    | p :: rest when Tuple.equal p row -> Some (List.rev_append seen rest)
    | p :: rest -> go (p :: seen) rest
  in
  go [] rows

(* Resolve requested user rows to stored occurrences through the
   chronicle's occurrence index: each row claims its newest unclaimed
   occurrence (deterministic).  The claims are grouped by sequence
   number ascending and listed in store order within one — the
   [Ev_retract] entry shape — equal rows at one sn claiming its latest
   slots. *)
let resolve_retraction c rows =
  let taken = Tuple.Tbl.create 8 and by_sn = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let k = Option.value ~default:0 (Tuple.Tbl.find_opt taken row) in
      match List.nth_opt (Chron.occurrences c row) k with
      | None ->
          invalid_arg
            (Format.asprintf
               "Db.retract %s: tuple %a has no retained occurrence left"
               (Chron.name c) Tuple.pp row)
      | Some sn ->
          Tuple.Tbl.replace taken row (k + 1);
          Hashtbl.replace by_sn sn
            (row :: Option.value ~default:[] (Hashtbl.find_opt by_sn sn)))
    rows;
  List.sort compare (Hashtbl.fold (fun sn _ acc -> sn :: acc) by_sn [])
  |> List.map (fun sn ->
         (* newest slot first, consing: the claims come out in store order *)
         let wanted = ref (Hashtbl.find by_sn sn) in
         let claimed =
           List.fold_left
             (fun acc tu ->
               let row = Chron.untag tu in
               match take_one row !wanted with
               | Some rest ->
                   wanted := rest;
                   row :: acc
               | None -> acc)
             [] (List.rev (Chron.at_sn c sn))
         in
         (sn, claimed))

let retract t cname rows =
  check_writable t "retract";
  let c = chronicle t cname in
  (* refused before anything is journaled: temporal readers see appends
     only, so a retraction would leave them silently stale *)
  (match first_temporal_reader t c with
  | Some reader ->
      invalid_arg
        (Printf.sprintf "cannot retract from %s: %s reads it and takes appends only"
           cname reader)
  | None -> ());
  (match Chron.retention c with
  | Chron.Full -> ()
  | Chron.Discard | Chron.Window _ ->
      invalid_arg
        (Printf.sprintf
           "Db.retract %s: retraction requires Full retention (stored \
            occurrences must be addressable)"
           cname));
  Chron.check_batch c rows;
  if rows = [] then 0
  else begin
    retract_resolved t c (resolve_retraction c rows);
    List.length rows
  end

(* Recovery replay of a journaled [Ev_retract].  Idempotence marker:
   occurrences already absent from the store (the checkpoint was taken
   after the retraction applied) are skipped; if nothing survives the
   record is a no-op and [false] is returned. *)
let replay_retract t cname entries =
  check_writable t "replay_retract";
  let c = chronicle t cname in
  let surviving =
    List.filter_map
      (fun (sn, rows) ->
        let avail = ref (List.map Chron.untag (Chron.at_sn c sn)) in
        let take row =
          match take_one row !avail with
          | Some rest ->
              avail := rest;
              true
          | None -> false
        in
        match List.filter take rows with
        | [] -> None
        | present -> Some (sn, present))
      entries
  in
  match surviving with
  | [] -> false
  | surviving ->
      retract_resolved t c surviving;
      true

let advance_clock t ?group:gname chronon =
  check_writable t "advance_clock";
  let gname = Option.value ~default:t.default_group gname in
  Group.advance_clock (group t gname) chronon;
  emit t (Ev_clock { group = gname; chronon })

let summary t ~view:vname key = View.lookup (view t vname) key
let view_contents t vname = View.to_list (view t vname)
