open Relational
open Chronicle_core

exception Recovery_error of { record : int; reason : string }
exception Checkpoint_corrupt of { generation : int option; reason : string }

let journal_file = "journal"
let checkpoint_file = Ckpt.file
let checkpoint_tmp_file = Ckpt.tmp_file
let quarantine_name name = name ^ ".quarantine"

(* crash-point names (see Fault) *)
let p_post_journal_write = "post-journal-write"
let p_post_group_write = "post-group-write"
let p_post_insert_write = "post-insert-write"
let p_post_retract_write = "post-retract-write"
let p_pre_checkpoint_rename = "pre-checkpoint-rename"
let p_post_checkpoint_rename = "post-checkpoint-rename"
let p_view_fold = "view-fold"
let p_replay_dispatch = "replay-dispatch"

(* ---- journal records: one Codec-encoded transaction event each ---- *)

let put_tag buf t = Buffer.add_char buf (Char.chr t)

let put_batch =
  Codec.put_list (fun buf (cname, tuples) ->
      Codec.put_string buf cname;
      Codec.put_list Snapshot.put_tuple buf tuples)

let get_batch =
  Codec.list (fun r ->
      let cname = Codec.string_ r in
      (cname, Codec.list Snapshot.get_tuple r))

let put_sn_rows buf (sn, rows) =
  Codec.put_int buf sn;
  Codec.put_list Snapshot.put_tuple buf rows

let put_event buf (ev : Db.txn_event) =
  match ev with
  | Db.Ev_append { group; sn; batch } ->
      put_tag buf 0;
      Codec.put_string buf group;
      Codec.put_int buf sn;
      put_batch buf batch
  | Db.Ev_group { group; entries } ->
      (* a whole group commit framed as ONE journal record: one storage
         append, one sync, however many batches the group carries *)
      put_tag buf 1;
      Codec.put_string buf group;
      Codec.put_list
        (fun buf (sn, batch) ->
          Codec.put_int buf sn;
          put_batch buf batch)
        buf entries
  | Db.Ev_insert { relation; rows; at } ->
      put_tag buf 2;
      Codec.put_string buf relation;
      put_sn_rows buf (at, rows)
  | Db.Ev_retract { chronicle; entries } ->
      put_tag buf 3;
      Codec.put_string buf chronicle;
      Codec.put_list put_sn_rows buf entries
  | Db.Ev_clock { group; chronon } ->
      put_tag buf 4;
      Codec.put_string buf group;
      Codec.put_int buf chronon
  | Db.Ev_add_group { name; clock_start } ->
      put_tag buf 5;
      Codec.put_string buf name;
      Codec.put_option Codec.put_int buf clock_start
  | Db.Ev_add_chronicle { name; group; retention; schema } ->
      put_tag buf 6;
      Codec.put_string buf name;
      Codec.put_string buf group;
      Snapshot.put_retention buf retention;
      Snapshot.put_schema buf schema
  | Db.Ev_add_relation { name; group; schema; key } ->
      put_tag buf 7;
      Codec.put_string buf name;
      Codec.put_string buf group;
      Snapshot.put_schema buf schema;
      Codec.put_option Snapshot.put_attrs buf key
  | Db.Ev_define_view { def; index } ->
      (* the definition travels as its own length-prefixed encoding, so
         decoding the record never resolves a name (see [P_define_view]) *)
      put_tag buf 8;
      Snapshot.put_index_kind buf index;
      Codec.put_string buf (Codec.encode Snapshot.put_sca def)
  | Db.Ev_drop_view { name } ->
      put_tag buf 9;
      Codec.put_string buf name
  | Db.Ev_abort _ ->
      (* Aborts erase the previous record ([sink] maps them to
         [Journal.truncate_last]); they are never serialized.  This
         function's only caller is [sink], which dispatches [Ev_abort]
         before reaching the serializer, so this branch is unreachable
         from within the module — kept as a typed rejection (not an
         assert) so a future caller that bypasses [sink] fails with a
         diagnosis instead of a blind assertion. *)
      invalid_arg "Durable: Ev_abort is erased, never journaled"

(* ---- journal-record decoding and application ----

   Split in two stages so failures are typed precisely:

   - [decode_record] performs every structural decoding of the payload.
     A CRC-valid payload that does not decode is *corruption* (the
     checksum said the bytes are what was written, the content is still
     gibberish) and raises [Journal.Journal_corrupt] with the record
     index and the byte offset inside the payload — never a bare
     [Failure].
   - [apply_parsed] re-applies a decoded record to the database.  Its
     failures are *application* failures (the record is well-formed but
     the database cannot accept it), reported by [recover] as
     [Recovery_error] — or, for the journal's final record, tolerated
     as the batch that died with the crashed process.

   Application is idempotent: a record whose effect is already present
   (checkpoint taken after it, or a crash between checkpoint-rename and
   journal-reset) is skipped; [apply_parsed] returns [true] iff the
   record was applied. *)

type parsed =
  | P_append of { grouped : bool; entries : Db.replay_entry list }
      (* one append record (a single entry) or group-commit record:
         applied atomically through [Db.replay_record] when it is the
         journal's final record, flattened into the replay window
         otherwise (a non-final record is fully committed by
         construction — it survived the next write) *)
  | P_insert of { relation : string; rows : Tuple.t list; at : int }
      (* one Db.insert_rows batch; [at] is the relation's pre-insert
         cardinality, the idempotence marker (see Db.Ev_insert) *)
  | P_retract of {
      chronicle : string;
      entries : (Seqnum.t * Tuple.t list) list;
    }
      (* one Db.retract operation, already resolved to stored
         occurrences; occurrence-presence is the idempotence marker
         (see Db.Ev_retract) *)
  | P_clock of { group : string; chronon : Seqnum.chronon }
  | P_add_group of { name : string; clock_start : Seqnum.chronon option }
  | P_add_chronicle of {
      name : string;
      group : string;
      retention : Chron.retention;
      schema : Schema.t;
    }
  | P_add_relation of {
      name : string;
      group : string;
      schema : Schema.t;
      key : string list option;
    }
  | P_define_view of { index : Index.kind; def : string }
      (* [def] stays undecoded bytes: resolving it needs catalog state,
         so its failures are application failures, not corruption *)
  | P_drop_view of { name : string }

let get_sn_rows r =
  let sn = Codec.int_ r in
  (sn, Codec.list Snapshot.get_tuple r)

let get_record r =
  match Codec.byte r with
  | 0 ->
      let rgroup = Codec.string_ r in
      let rsn = Codec.int_ r in
      P_append
        { grouped = false; entries = [ { Db.rgroup; rsn; rbatch = get_batch r } ] }
  | 1 ->
      let rgroup = Codec.string_ r in
      let entries =
        Codec.list
          (fun r ->
            let rsn = Codec.int_ r in
            { Db.rgroup; rsn; rbatch = get_batch r })
          r
      in
      if entries = [] then Codec.fail "empty group record";
      P_append { grouped = true; entries }
  | 2 ->
      let relation = Codec.string_ r in
      let at, rows = get_sn_rows r in
      P_insert { relation; rows; at }
  | 3 ->
      let chronicle = Codec.string_ r in
      P_retract { chronicle; entries = Codec.list get_sn_rows r }
  | 4 ->
      let group = Codec.string_ r in
      P_clock { group; chronon = Codec.int_ r }
  | 5 ->
      let name = Codec.string_ r in
      P_add_group { name; clock_start = Codec.option Codec.int_ r }
  | 6 ->
      let name = Codec.string_ r in
      let group = Codec.string_ r in
      let retention = Snapshot.get_retention r in
      P_add_chronicle { name; group; retention; schema = Snapshot.get_schema r }
  | 7 ->
      let name = Codec.string_ r in
      let group = Codec.string_ r in
      let schema = Snapshot.get_schema r in
      P_add_relation
        { name; group; schema; key = Codec.option Snapshot.get_attrs r }
  | 8 ->
      let index = Snapshot.get_index_kind r in
      P_define_view { index; def = Codec.string_ r }
  | 9 -> P_drop_view { name = Codec.string_ r }
  | t -> Codec.fail "unknown journal record tag %#x" t

let decode_record ~record payload =
  let corrupt reason =
    raise (Journal.Journal_corrupt { record; reason = "malformed record: " ^ reason })
  in
  match Codec.decode get_record payload with
  | Ok parsed -> parsed
  | Error reason -> corrupt reason
  | exception e -> corrupt (Printexc.to_string e)

let verify_record ~record payload = ignore (decode_record ~record payload)

let apply_parsed db = function
  | P_append { grouped; entries } ->
      (* atomic: the whole record applies or none of it does — this is
         the path the journal's *final* record takes, so a process that
         died mid-group recovers to pre-group or post-group state *)
      Array.exists Fun.id (Db.replay_record db ~grouped entries)
  | P_insert { relation; rows; at } ->
      (* skip iff the rows are already present: the language surface is
         insert-only for relations, so live cardinality is monotone and
         a cardinality above the record's pre-insert count means a later
         checkpoint (or the rename half of a checkpoint the crash
         interrupted) already holds these rows *)
      let rel = Versioned.relation (Db.relation db relation) in
      if Relation.cardinality rel > at then false
      else begin
        Db.insert_rows db relation rows;
        true
      end
  | P_retract { chronicle; entries } ->
      (* idempotent by occurrence-presence: entries whose stored
         occurrences a later checkpoint already removed are skipped
         inside [replay_retract]; [false] means the whole record was a
         no-op *)
      Db.replay_retract db chronicle entries
  | P_clock { group; chronon } ->
      if chronon <= Group.now (Db.group db group) then false
      else begin
        Db.advance_clock db ~group chronon;
        true
      end
  | P_add_group { name; clock_start } ->
      if List.mem name (Db.group_names db) then false
      else begin
        ignore (Db.add_group db ?clock_start name);
        true
      end
  | P_add_chronicle { name; group; retention; schema } ->
      if List.mem name (Db.chronicle_names db) then false
      else begin
        ignore (Db.add_chronicle db ~group ~retention ~name schema);
        true
      end
  | P_add_relation { name; group; schema; key } ->
      if List.mem name (Db.relation_names db) then false
      else begin
        ignore (Db.add_relation db ~group ~name ~schema ?key ());
        true
      end
  | P_define_view { index; def } ->
      let def =
        Snapshot.decode_with "view definition"
          (Snapshot.get_sca
             ~chronicle:(fun n -> Db.chronicle db n)
             ~relation:(fun n -> Versioned.relation (Db.relation db n)))
          def
      in
      if Option.is_some (Registry.find (Db.registry db) (Sca.name def)) then
        false
      else begin
        (* the live system already admitted this definition; replay with
           the most permissive tier so recovery cannot re-reject it *)
        ignore (Db.define_view db ~index ~tier_limit:Classify.IM_poly_c def);
        true
      end
  | P_drop_view { name } ->
      if Option.is_none (Registry.find (Db.registry db) name) then false
      else begin
        Db.drop_view db name;
        true
      end

(* ---- the durable handle ---- *)

type health = Healthy | Degraded of string

type t = {
  database : Db.t;
  storage : Storage.t; (* retry- and fault-wrapped *)
  fault : Fault.t;
  journal : Journal.t;
  sync : Journal.sync_policy;
  keep : int; (* checkpoint generations retained *)
  segment_bytes : int option;
  mutable health : health;
}

let db t = t.database
let fault t = t.fault
let sync_policy t = t.sync
let journal_records t = Journal.records t.journal
let journal_bytes t = Journal.byte_size t.journal
let health t = t.health
let keep_checkpoints t = t.keep

let degrade t reason =
  match t.health with
  | Degraded _ -> ()
  | Healthy ->
      t.health <- Degraded reason;
      Db.set_read_only t.database (Some reason)

(* ---- bounded sync retry ----

   A transient sync failure (EIO-style, or [Fault.Sync_failed] injected
   by the harness) is retried with exponential backoff; if the budget
   is exhausted the instance degrades to read-only instead of raising
   mid-append — the write-ahead record is on storage (perhaps
   unflushed), in-memory state is consistent, and every further
   mutation is rejected with [Db.Read_only] until an operator
   intervenes.  The wrapper sits {e outside} the fault wrapper, so
   injected failures are retried exactly as real ones would be. *)

let sync_attempts = 5

let with_sync_retry ~on_exhausted (s : Storage.t) =
  {
    s with
    Storage.sync =
      (fun name ->
        let transient = function
          | Fault.Sync_failed _ | Unix.Unix_error _ -> true
          | _ -> false
        in
        let rec go attempt =
          try s.Storage.sync name
          with e when transient e ->
            if attempt >= sync_attempts then on_exhausted name
            else begin
              Stats.incr Stats.Sync_retry;
              Unix.sleepf
                (Float.min 0.05 (0.001 *. float_of_int (1 lsl (attempt - 1))));
              go (attempt + 1)
            end
        in
        go 1);
  }

let exhausted_reason name =
  Printf.sprintf "sync of %S failed %d times; writes no longer reach stable storage"
    name sync_attempts

(* [attach]/[recover] build the storage stack before the handle exists;
   the cell forward-references the handle so exhaustion can degrade
   it. *)
let wrap_with_retry fault storage =
  let cell = ref (fun (_ : string) -> ()) in
  let wrapped =
    with_sync_retry
      ~on_exhausted:(fun name -> !cell name)
      (Fault.wrap_storage fault storage)
  in
  (wrapped, cell)

let arm_degrade cell t =
  cell := fun name -> degrade t (exhausted_reason name)

let alive t name =
  if Fault.is_dead t.fault then
    invalid_arg (Printf.sprintf "Durable.%s: instance crashed" name)

let sink t ev =
  (* a dead process writes nothing — in particular it cannot erase the
     write-ahead record of the batch the crash interrupted *)
  if not (Fault.is_dead t.fault) then
    match ev with
    | Db.Ev_abort _ -> Journal.truncate_last t.journal
    | ev ->
        Journal.append t.journal (Codec.encode put_event ev);
        (match ev with
        | Db.Ev_append _ -> Fault.hit t.fault p_post_journal_write
        | Db.Ev_group _ ->
            (* groups are write-ahead records too, so the generic point
               fires; the dedicated point lets fault sweeps target the
               half-committed-group window specifically *)
            Fault.hit t.fault p_post_journal_write;
            Fault.hit t.fault p_post_group_write
        | Db.Ev_insert _ ->
            (* relation-row inserts are write-ahead records too: the
               generic point fires, and a dedicated point lets fault
               sweeps target the journaled-but-not-applied window of an
               insert specifically *)
            Fault.hit t.fault p_post_journal_write;
            Fault.hit t.fault p_post_insert_write
        | Db.Ev_retract _ ->
            (* retractions are write-ahead records too: the generic
               point fires, and a dedicated point lets fault sweeps
               target the journaled-but-not-applied window of a
               retraction specifically *)
            Fault.hit t.fault p_post_journal_write;
            Fault.hit t.fault p_post_retract_write
        | _ -> ())

(* Retire old checkpoint generations and the journal segments no
   retained generation needs.  [min_first] is the smallest
   [first_segment] over the retained generations — a generation whose
   header no longer reads is treated as needing everything
   (conservative: never delete bytes a fallback might replay). *)
let prune_generations t ~newest_gen ~newest_first_segment =
  let retained, dropped =
    let rec split n = function
      | [] -> ([], [])
      | x :: rest when n > 0 ->
          let r, d = split (n - 1) rest in
          (x :: r, d)
      | rest -> ([], rest)
    in
    split t.keep (List.rev (Ckpt.generations t.storage))
  in
  List.iter (fun (_, name) -> t.storage.Storage.remove name) dropped;
  (* a bare legacy checkpoint is superseded by any generation *)
  t.storage.Storage.remove checkpoint_file;
  let min_first =
    List.fold_left
      (fun acc (g, name) ->
        if g = newest_gen then min acc newest_first_segment
        else
          match t.storage.Storage.read name with
          | None -> 0
          | Some contents -> (
              match Ckpt.decode contents with
              | Ok (h, _) -> min acc h.Ckpt.first_segment
              | Error _ -> 0))
      newest_first_segment retained
  in
  List.iter
    (fun (seq, name) -> if seq < min_first then t.storage.Storage.remove name)
    (Journal.segments t.storage journal_file)

let do_checkpoint t =
  let doc = Snapshot.save t.database in
  (* keep = 1: one bare [checkpoint] whose journal is reset below, so
     replay starts at the first segment; keep >= 2: a numbered
     generation over a freshly sealed journal — seal first so the new
     active segment is exactly the journal it does not cover *)
  let name, generation, first_segment =
    if t.keep <= 1 then (checkpoint_file, 0, 0)
    else begin
      Journal.seal t.journal;
      let generation =
        match List.rev (Ckpt.generations t.storage) with
        | (g, _) :: _ -> g + 1
        | [] -> 0
      in
      (Ckpt.gen_name generation, generation, Journal.active_seq t.journal)
    end
  in
  t.storage.Storage.write checkpoint_tmp_file
    (Ckpt.encode ~generation ~first_segment doc);
  t.storage.Storage.sync checkpoint_tmp_file;
  Fault.hit t.fault p_pre_checkpoint_rename;
  t.storage.Storage.rename checkpoint_tmp_file name;
  t.storage.Storage.sync name;
  Fault.hit t.fault p_post_checkpoint_rename;
  if t.keep <= 1 then begin
    Journal.reset t.journal;
    (* leftovers from an earlier multi-generation configuration are all
       redundant now: the bare checkpoint covers everything *)
    List.iter
      (fun (_, name) -> t.storage.Storage.remove name)
      (Ckpt.generations t.storage @ Journal.segments t.storage journal_file)
  end
  else
    prune_generations t ~newest_gen:generation ~newest_first_segment:first_segment;
  Stats.incr Stats.Checkpoint

let checkpoint t =
  alive t "checkpoint";
  do_checkpoint t

let install t =
  Db.set_txn_sink t.database (Some (sink t));
  Db.set_fold_probe t.database
    (Some (fun ~view:_ ~sn:_ -> Fault.hit t.fault p_view_fold));
  (* heavy-light partition transitions (promote/demote inside a
     key-join fold) are crash points too: route them to the same fault
     plan so the sweep can abort a batch mid-build/mid-teardown *)
  Skew.set_probe (Some (fun point -> Fault.hit t.fault point))

let detach t =
  Db.set_txn_sink t.database None;
  Db.set_fold_probe t.database None;
  Skew.set_probe None

let next_seal_seq storage =
  match List.rev (Journal.segments storage journal_file) with
  | (seq, _) :: _ -> seq + 1
  | [] -> 0

let attach ?fault ?(sync = Journal.Sync_always) ?(keep_checkpoints = 1)
    ?segment_bytes ~storage db =
  if keep_checkpoints < 1 then
    invalid_arg "Durable.attach: keep_checkpoints must be at least 1";
  let fault = Option.value fault ~default:(Fault.create ()) in
  let storage, cell = wrap_with_retry fault storage in
  (* a crash between checkpoint write and rename leaves a stale temp;
     deleted here so it can never shadow a future checkpoint *)
  storage.Storage.remove checkpoint_tmp_file;
  let journal =
    Journal.open_ ~sync ?segment_bytes ~seq:(next_seal_seq storage) storage
      journal_file
  in
  let t =
    {
      database = db;
      storage;
      fault;
      journal;
      sync;
      keep = keep_checkpoints;
      segment_bytes;
      health = Healthy;
    }
  in
  arm_degrade cell t;
  (* without a checkpoint, recovery could not reconstruct catalog state
     that predates journaling (including the default group's name) *)
  if
    (not (storage.Storage.exists checkpoint_file))
    && Ckpt.generations storage = []
  then do_checkpoint t;
  install t;
  t

type mode = Strict | Salvage

type report = {
  checkpoint_loaded : bool;
  generation : int option;
  fallbacks : int;
  replayed : int;
  skipped : int;
  dropped_torn : bool;
  dropped_failed : bool;
  quarantined : int;
  degraded : bool;
}

let recover ?fault ?(sync = Journal.Sync_always) ?jobs ?heavy_threshold
    ?(mode = Strict)
    ?(keep_checkpoints = 1) ?segment_bytes ~storage () =
  if keep_checkpoints < 1 then
    invalid_arg "Durable.recover: keep_checkpoints must be at least 1";
  let fault = Option.value fault ~default:(Fault.create ()) in
  (* a crash between checkpoint write and rename leaves a stale temp *)
  storage.Storage.remove checkpoint_tmp_file;
  let quarantined = ref 0 in
  let quarantine name bytes =
    (* never silently drop damaged bytes: park them in a sidecar the
       operator (or a future repair tool) can inspect *)
    storage.Storage.write (quarantine_name name) bytes;
    storage.Storage.sync (quarantine_name name);
    incr quarantined;
    Stats.incr Stats.Salvage_quarantined
  in
  (* ---- checkpoint: newest verifiable generation, falling back
     generation by generation, then the bare legacy name ---- *)
  let candidates =
    List.rev_map (fun (g, name) -> (Some g, name)) (Ckpt.generations storage)
    @ (if storage.Storage.exists checkpoint_file then
         [ (None, checkpoint_file) ]
       else [])
  in
  let fallbacks = ref 0 in
  let rec load_checkpoint first_failure = function
    | [] -> (
        match first_failure with
        | None -> `Fresh
        | Some (generation, reason) -> `All_failed (generation, reason))
    | (generation, name) :: rest -> (
        let verdict =
          match storage.Storage.read name with
          | None -> Error "vanished during recovery"
          | Some contents -> (
              match Ckpt.decode contents with
              | Error reason -> Error reason
              | Ok (h, payload) -> (
                  match Snapshot.load ?jobs ?heavy_threshold payload with
                  | db -> Ok (h.Ckpt.first_segment, db)
                  | exception Snapshot.Snapshot_error reason -> Error reason))
        in
        match verdict with
        | Ok (first_segment, db) -> `Loaded (generation, first_segment, db)
        | Error reason ->
            Stats.incr Stats.Checkpoint_fallback;
            incr fallbacks;
            if mode = Salvage then begin
              (* self-heal: keep the damaged generation's bytes, but out
                 of the fallback path *)
              (match storage.Storage.read name with
              | Some contents -> quarantine name contents
              | None -> ());
              storage.Storage.remove name
            end;
            load_checkpoint
              (match first_failure with
              | None -> Some (generation, reason)
              | s -> s)
              rest)
  in
  let checkpoint_loaded, generation, first_segment, database, ck_failed =
    match load_checkpoint None candidates with
    | `Loaded (generation, first_segment, db) ->
        (true, generation, first_segment, db, false)
    | `Fresh -> (false, None, 0, Db.create ?jobs ?heavy_threshold (), false)
    | `All_failed (generation, reason) ->
        if mode = Strict then raise (Checkpoint_corrupt { generation; reason })
        else (false, None, 0, Db.create ?jobs ?heavy_threshold (), true)
  in
  (* ---- journal: sealed segments the checkpoint does not cover, in
     sequence order, then the active segment ---- *)
  let scans =
    List.map
      (fun (kind, name) ->
        let recs, ended =
          match storage.Storage.read name with
          | None -> ([], Journal.Complete)
          | Some contents -> Journal.scan contents
        in
        (kind, name, recs, ended))
      (List.filter_map
         (fun (seq, name) ->
           if seq >= first_segment then Some (`Sealed seq, name) else None)
         (Journal.segments storage journal_file)
      @ [ (`Active, journal_file) ])
  in
  let replayed = ref 0 and skipped = ref 0 in
  let dropped_failed = ref false and dropped_torn = ref false in
  let count applied =
    if applied then begin
      incr replayed;
      Stats.incr Stats.Journal_replay
    end
    else incr skipped
  in
  let salvage_stopped = ref false in
  (match mode with
  | Strict -> begin
      (* stage 1: flatten the segments into the global record sequence,
         verifying as we go — damage anywhere (a checksum mismatch, or
         a torn {e sealed} segment, which a clean rotation can never
         produce) is corruption, reported before any replay begins.  A
         torn tail on the active segment stays the tolerated
         died-mid-append case. *)
      let rev_records = ref [] (* (payload, segment-name, offset, active?) *) in
      let base = ref 0 in
      List.iter
        (fun (kind, name, recs, ended) ->
          List.iter
            (fun (payload, off) ->
              rev_records := (payload, name, off, kind = `Active) :: !rev_records)
            recs;
          let here = List.length recs in
          (match (ended, kind) with
          | Journal.Complete, _ -> ()
          | Journal.Torn _, `Active -> dropped_torn := true
          | Journal.Torn _, `Sealed _ ->
              raise
                (Journal.Journal_corrupt
                   { record = !base + here; reason = "sealed segment torn" })
          | Journal.Damaged { index; reason; _ }, _ ->
              raise
                (Journal.Journal_corrupt { record = !base + index; reason }));
          base := !base + here)
        scans;
      let located = Array.of_list (List.rev !rev_records) in
      (* stage 2: decode every record up front — a CRC-valid payload
         that does not decode is corruption too, reported with its
         global index *)
      let parsed =
        Array.mapi
          (fun i (payload, _, _, _) -> decode_record ~record:i payload)
          located
      in
      let n = Array.length parsed in
      (* stage 3: replay.  Runs of consecutive append and group records
         (the common journal shape) are dispatched as one window through
         [Db.replay_appends] — Db's record-and-fold step without its
         transaction bracket — which schedules independent views' fold
         chains across the database's pool; catalog/clock records are
         scheduling barriers replayed one at a time; and the journal's
         final record always replays alone through the bracket
         ([Db.replay_record]), keeping the classic semantics of a batch
         that died with the crashed process (applied-or-dropped, never
         half-applied).
         Every degree — including [jobs = 1], where the pool runs
         inline — takes this same path, so recovered state is identical
         across degrees. *)
      let apply_classic i p =
    match apply_parsed database p with
    | applied -> count applied
    | exception e ->
        if i = n - 1 then
          (* the dying process's final batch: Db's transactional path
             already rolled its effects back; drop its record below *)
          dropped_failed := true
        else raise (Recovery_error { record = i; reason = Printexc.to_string e })
  in
  let is_append k = match parsed.(k) with P_append _ -> true | _ -> false in
  let i = ref 0 in
  while !i < n do
    if is_append !i && !i < n - 1 then begin
      (* maximal window of consecutive append/group records, final
         record excluded.  Group records flatten into the entry run —
         a non-final group is fully committed (its record survived the
         next write), so entry-at-a-time replay is exact — while
         [spans] remembers which entries came from which source record,
         keeping the report's replayed/skipped counts and any failure
         index record-granular. *)
      let entries = ref [] and spans = ref [] in
      let j = ref !i and flat = ref 0 in
      let scan = ref true in
      while !scan do
        if !j < n - 1 then
          match parsed.(!j) with
          | P_append { entries = es; _ } ->
              let len = List.length es in
              entries := es :: !entries;
              spans := (!j, !flat, len) :: !spans;
              flat := !flat + len;
              incr j
          | _ -> scan := false
        else scan := false
      done;
      Fault.hit fault p_replay_dispatch;
      (match Db.replay_appends database (List.concat (List.rev !entries)) with
      | outcomes ->
          List.iter
            (fun (_, start, len) ->
              let applied = ref false in
              for k = start to start + len - 1 do
                if outcomes.(k) then applied := true
              done;
              count !applied)
            !spans
      | exception Db.Entry_failed { index; error } ->
          let record =
            match
              List.find_opt
                (fun (_, start, len) -> index >= start && index < start + len)
                !spans
            with
            | Some (r, _, _) -> r
            | None -> !i + index
          in
          raise (Recovery_error { record; reason = Printexc.to_string error }));
      i := !j
    end
    else begin
      apply_classic !i parsed.(!i);
      incr i
    end
  done;
      if !dropped_failed then
        (* erase the dropped record wherever it lives; when it sits in
           the active segment the reopened journal erases it below *)
        match located.(n - 1) with
        | _, name, off, false -> storage.Storage.truncate name off
        | _ -> ()
    end
  | Salvage ->
      (* Sequential, transactional, stop-at-first-damage: each record
         re-applies through the per-record transactional path, so when
         replay stops the database is {e exactly} the journal prefix
         before the damage.  The damaged suffix — and every later
         segment wholesale — is quarantined to sidecars, never silently
         dropped; the instance then opens read-only (Degraded). *)
      let n_total =
        List.fold_left
          (fun acc (_, _, recs, _) -> acc + List.length recs)
          0 scans
      in
      let gi = ref 0 in
      let stop_at name off rest =
        salvage_stopped := true;
        (match storage.Storage.read name with
        | Some contents when String.length contents > off ->
            quarantine name
              (String.sub contents off (String.length contents - off))
        | _ -> ());
        if off = 0 then storage.Storage.remove name
        else storage.Storage.truncate name off;
        List.iter
          (fun (_, n2, recs2, ended2) ->
            (if recs2 <> [] || ended2 <> Journal.Complete then
               match storage.Storage.read n2 with
               | Some contents -> quarantine n2 contents
               | None -> ());
            storage.Storage.remove n2)
          rest
      in
      let rec go = function
        | [] -> ()
        | (kind, name, recs, ended) :: rest ->
            let failed = ref None in
            List.iter
              (fun (payload, off) ->
                if !failed = None then
                  match
                    apply_parsed database (decode_record ~record:!gi payload)
                  with
                  | applied ->
                      count applied;
                      incr gi
                  | exception (Journal.Journal_corrupt _ as _e) ->
                      (* CRC-valid gibberish: damage, not a died batch *)
                      failed := Some off
                  | exception _ when !gi = n_total - 1 ->
                      (* the dying process's final batch: dropped, as in
                         strict recovery *)
                      dropped_failed := true;
                      if kind <> `Active then storage.Storage.truncate name off;
                      incr gi
                  | exception _ -> failed := Some off)
              recs;
            (match !failed with
            | Some off -> stop_at name off rest
            | None -> (
                match (ended, kind) with
                | Journal.Complete, _ -> go rest
                | Journal.Torn _, `Active -> dropped_torn := true
                | Journal.Torn off, `Sealed _ -> stop_at name off rest
                | Journal.Damaged { offset; _ }, _ -> stop_at name offset rest))
      in
      go scans);
  let wrapped, cell = wrap_with_retry fault storage in
  let journal =
    Journal.open_ ~sync ?segment_bytes ~seq:(next_seal_seq storage) wrapped
      journal_file
  in
  if !dropped_failed && Journal.records journal > 0 then
    Journal.truncate_last journal;
  let degraded_reason =
    if !salvage_stopped then
      Some "salvage recovery quarantined damaged journal records"
    else if ck_failed then
      Some "salvage recovery could not verify any checkpoint generation"
    else None
  in
  let t =
    {
      database;
      storage = wrapped;
      fault;
      journal;
      sync;
      keep = keep_checkpoints;
      segment_bytes;
      health = Healthy;
    }
  in
  arm_degrade cell t;
  (match degraded_reason with Some r -> degrade t r | None -> ());
  if candidates = [] && degraded_reason = None then do_checkpoint t;
  install t;
  ( t,
    {
      checkpoint_loaded;
      generation;
      fallbacks = !fallbacks;
      replayed = !replayed;
      skipped = !skipped;
      dropped_torn = !dropped_torn;
      dropped_failed = !dropped_failed;
      quarantined = !quarantined;
      degraded = degraded_reason <> None;
    } )

let has_state (storage : Storage.t) =
  storage.Storage.exists checkpoint_file
  || storage.Storage.exists journal_file
  || Ckpt.generations storage <> []
  || Journal.segments storage journal_file <> []
