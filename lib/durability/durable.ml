open Relational
open Chronicle_core

exception Recovery_error of { record : int; reason : string }
exception Checkpoint_corrupt of { generation : int option; reason : string }

let journal_file = "journal"
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
  | Db.Ev_define_temporal def ->
      (* like a view definition: its own length-prefixed encoding *)
      put_tag buf 10;
      Codec.put_string buf (Codec.encode Snapshot.put_temporal def)
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

   - [read_segment] (below) performs every structural decoding of the
     payloads.  A CRC-valid payload that does not decode is
     *corruption* (the checksum said the bytes are what was written,
     the content is still gibberish), classified like a checksum
     mismatch — with the record index and the byte offset inside the
     payload — never a bare [Failure].
   - [apply_parsed] re-applies a decoded record to the database.  Its
     failures are *application* failures (the record is well-formed but
     the database cannot accept it), reported by [recover] as
     [Recovery_error] — or, for the journal's final record, tolerated
     as the batch that died with the crashed process.

   Application is idempotent: a record whose effect is already present
   (the checkpoint replay starts from already holds it) is skipped;
   [apply_parsed] returns [true] iff the record was applied. *)

type record =
  | P_append of { grouped : bool; entries : Db.replay_entry list }
      (* one append record (a single entry) or group-commit record:
         applied atomically through [Db.replay_record] when it is the
         replayed prefix's last record, through the bare step otherwise
         (a non-final record is fully committed by construction — it
         survived the next write) *)
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
  | P_define_temporal of { def : string }
      (* undecoded, like [P_define_view]'s definition *)

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
  | 10 -> P_define_temporal { def = Codec.string_ r }
  | t -> Codec.fail "unknown journal record tag %#x" t

let apply_parsed db =
  let chronicle = Db.chronicle db in
  let relation n = Versioned.relation (Db.relation db n) in
  function
  | P_append { grouped; entries } ->
      (* atomic: the whole record applies or none of it does — this is
         the path the journal's *final* record takes, so a process that
         died mid-group recovers to pre-group or post-group state *)
      Array.exists Fun.id (Db.replay_record db ~grouped entries)
  | P_insert { relation; rows; at } ->
      (* skip iff the rows are already present: the language surface is
         insert-only for relations, so live cardinality is monotone and
         a cardinality above the record's pre-insert count means the
         checkpoint already holds these rows *)
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
        Snapshot.decode_with "view definition" (Snapshot.get_sca ~chronicle ~relation) def
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
  | P_define_temporal { def } ->
      let def =
        Snapshot.decode_with "temporal definition"
          (Snapshot.get_temporal ~chronicle ~relation)
          def
      in
      let present =
        match def with
        | Db.Periodic_def { name; _ } -> Option.is_some (Db.periodic db name)
        | Db.Windowed_def { name; _ } -> Option.is_some (Db.windowed db name)
        | Db.Rule_def { chronicle; rule } -> (
            match Db.detector db chronicle with
            | Some det ->
                List.exists
                  (fun r -> String.equal r.Detector.rule_name rule.Detector.rule_name)
                  (Detector.rules det)
            | None -> false)
      in
      if present then false
      else begin
        Db.define_temporal db def;
        true
      end

(* ---- reading the journal: one segment reader ----

   Recovery (in both modes) and scrub read a segment the same way:
   [Journal.scan] frames and checksums it, then every CRC-valid payload
   is decoded.  A torn tail is tolerated only on the active segment (the
   process died mid-append); a torn {e sealed} segment — a clean
   rotation always seals complete segments — and a CRC-valid payload
   that does not decode are damage, like a checksum mismatch. *)

type segment_end = Complete | Torn_tail | Damaged of Journal.damage
type 'a segment = { bytes : string; records : 'a; ended : segment_end }

let read_segment (storage : Storage.t) ~sealed name ~init ~add =
  match storage.Storage.read name with
  | None -> { bytes = ""; records = init; ended = Complete }
  | Some bytes ->
      let frames, scanned = Journal.scan bytes in
      (* [index]: the records decoded so far *)
      let rec decode index acc = function
        | (payload, offset) :: rest -> (
            let malformed reason =
              ( acc,
                Damaged { index; offset; reason = "malformed record: " ^ reason } )
            in
            match Codec.decode get_record payload with
            | Ok record -> decode (index + 1) (add acc record offset) rest
            | Error reason -> malformed reason
            | exception e -> malformed (Printexc.to_string e))
        | [] -> (
            ( acc,
              match scanned with
              | Journal.Complete -> Complete
              | Journal.Torn _ when not sealed -> Torn_tail
              | Journal.Torn offset ->
                  Damaged { index; offset; reason = "sealed segment torn" }
              | Journal.Damaged d -> Damaged d ))
      in
      let records, ended = decode 0 init frames in
      { bytes; records; ended }

(* ---- the storage layout: one listing ----

   Every checkpoint is a generation [checkpoint.<g>] over a sealed
   journal: a checkpoint seals the active [journal] into [journal.<seq>]
   and records the first segment it does not cover.  Names are
   discovered by convention over [Storage.list] — no manifest that a
   crash could leave disagreeing with the files.  Recovery, scrub,
   pruning and the first checkpoint all read this one listing. *)

type layout = {
  checkpoints : (int option * string) list;
  sealed : (int * string) list;
  active : bool;
}

let layout (storage : Storage.t) =
  {
    checkpoints =
      (if storage.Storage.exists Ckpt.file then [ (None, Ckpt.file) ] else [])
      @ List.map (fun (g, name) -> (Some g, name)) (Ckpt.generations storage);
    sealed = Journal.segments storage journal_file;
    active = storage.Storage.exists journal_file;
  }

(* The bare name is the single-file layout of an earlier build: it never
   verifies, so strict recovery refuses it, salvage quarantines it and
   scrub reports it — never silently starting from an empty database. *)
let verify_checkpoint (generation, name) contents =
  match (Ckpt.decode contents, generation) with
  | (Error _ as damaged), _ -> damaged
  | Ok _, None ->
      Error
        (Printf.sprintf
           "a bare %s is the layout of an earlier build: rename it to %s, whose \
            bytes are identical"
           name (Ckpt.gen_name 0))
  | verified, Some _ -> verified

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

(* One path at every [keep]: seal the journal, write generation [g]
   over it, then retire the generations past the newest [keep] and the
   journal segments no retained generation needs.  Sealing first makes
   the new active segment exactly the journal the generation does not
   cover.  A retained generation whose header no longer reads is treated
   as needing every segment (never delete bytes a fallback might
   replay). *)
let do_checkpoint t =
  let doc = Snapshot.save t.database in
  Journal.seal t.journal;
  let first_segment = Journal.active_seq t.journal in
  let { checkpoints; sealed; _ } = layout t.storage in
  let older =
    List.rev
      (List.filter_map
         (function Some g, name -> Some (g, name) | None, _ -> None)
         checkpoints)
  in
  let generation = match older with (g, _) :: _ -> g + 1 | [] -> 0 in
  let name = Ckpt.gen_name generation in
  t.storage.Storage.write checkpoint_tmp_file
    (Ckpt.encode ~generation ~first_segment doc);
  t.storage.Storage.sync checkpoint_tmp_file;
  Fault.hit t.fault p_pre_checkpoint_rename;
  t.storage.Storage.rename checkpoint_tmp_file name;
  t.storage.Storage.sync name;
  Fault.hit t.fault p_post_checkpoint_rename;
  (* [older] is newest first: keep the first [keep - 1] beside the new one *)
  List.iteri
    (fun i (_, name) -> if i >= t.keep - 1 then t.storage.Storage.remove name)
    older;
  let retained = List.filteri (fun i _ -> i < t.keep - 1) older in
  let min_first =
    List.fold_left
      (fun acc (_, name) ->
        match Option.map Ckpt.decode (t.storage.Storage.read name) with
        | Some (Ok (h, _)) -> min acc h.Ckpt.first_segment
        | None | Some (Error _) -> 0)
      first_segment retained
  in
  List.iter
    (fun (seq, name) -> if seq < min_first then t.storage.Storage.remove name)
    sealed;
  Stats.incr Stats.Checkpoint

let checkpoint t =
  alive t "checkpoint";
  do_checkpoint t

let install t =
  Db.set_txn_sink t.database (Some (sink t));
  Db.set_fold_probe t.database
    (Some (fun ~view:_ ~sn:_ -> Fault.hit t.fault p_view_fold))

let detach t =
  Db.set_txn_sink t.database None;
  Db.set_fold_probe t.database None

(* The sequence number the active segment seals to: past every sealed
   segment, and never below the [first_segment] of the generation
   recovery loaded — pruning may have removed every segment, and a
   segment sealed below it would be skipped by that generation's
   replay. *)
let next_seal_seq { sealed; _ } ~first_segment =
  match List.rev sealed with
  | (seq, _) :: _ -> max (seq + 1) first_segment
  | [] -> first_segment

(* The constructor [attach] and [recover] share, in two halves.
   [prepare] runs before the caller touches storage: it checks the
   parameters and deletes a stale temp (a crash between checkpoint
   write and rename leaves one, and it must never shadow a future
   checkpoint).  [open_handle] runs once the caller has its database:
   it wraps storage with sync retry, reopens the journal, and writes
   the initial checkpoint a healthy instance needs. *)
let prepare ~caller ?fault ~keep_checkpoints (storage : Storage.t) =
  if keep_checkpoints < 1 then
    invalid_arg
      (Printf.sprintf "Durable.%s: keep_checkpoints must be at least 1" caller);
  storage.Storage.remove checkpoint_tmp_file;
  Option.value fault ~default:(Fault.create ())

let open_handle ~fault ~sync ~keep_checkpoints ~segment_bytes ~storage
    ~first_segment ~degraded database =
  let listed = layout storage in
  let storage, cell = wrap_with_retry fault storage in
  let journal =
    Journal.open_ ~sync ?segment_bytes
      ~seq:(next_seal_seq listed ~first_segment)
      storage journal_file
  in
  let t =
    {
      database;
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
  Option.iter (degrade t) degraded;
  (* without a checkpoint, recovery could not reconstruct catalog state
     that predates journaling (including the default group's name) *)
  if degraded = None && listed.checkpoints = [] then do_checkpoint t;
  install t;
  t

let attach ?fault ?(sync = Journal.Sync_always) ?(keep_checkpoints = 1)
    ?segment_bytes ~storage db =
  let fault = prepare ~caller:"attach" ?fault ~keep_checkpoints storage in
  open_handle ~fault ~sync ~keep_checkpoints ~segment_bytes ~storage
    ~first_segment:0 ~degraded:None db

type mode = Strict | Salvage

type report = {
  generation : int option;
  fallbacks : int;
  replayed : int;
  skipped : int;
  dropped_torn : bool;
  dropped_failed : bool;
  quarantined : int;
  degraded : bool;
}

(* Replay records [0, n) of the global record sequence into [database];
   [whole]: the prefix is the whole journal.  Every record replays on
   its own.  An append or group record before the last goes through
   [Db.replay_appends] — Db's record-and-fold step without its
   transaction bracket, so no undo marks are taken (a non-final group
   is fully committed: its record survived the next write, so
   entry-at-a-time replay is exact).  Catalog and clock records, and
   the prefix's last record, replay through the bracket; the last
   record thus keeps the classic semantics of a batch that died with
   the crashed process (applied-or-dropped, never half-applied).

   Returns [Ok (replayed, skipped, dropped_failed)], or [Error (k, e)]
   when record [k] failed to apply — unless [k] is the whole journal's
   final record, which is dropped instead. *)
let replay ~fault database (records : record array) n ~whole =
  let replayed = ref 0 and skipped = ref 0 in
  let rec go i =
    if i >= n then Ok (!replayed, !skipped, false)
    else
      let apply () =
        match records.(i) with
        | P_append { entries; _ } when i < n - 1 ->
            Fault.hit fault p_replay_dispatch;
            Array.exists Fun.id (Db.replay_appends database entries)
        | record -> apply_parsed database record
      in
      match apply () with
      | applied ->
          incr (if applied then replayed else skipped);
          go (i + 1)
      | exception (Fault.Crash _ as crash) -> raise crash
      | exception Db.Entry_failed { error; _ } -> Error (i, error)
      | exception e ->
          if whole && i = n - 1 then
            (* the dying process's final batch: Db's transactional path
               already rolled its effects back; its record is erased *)
            Ok (!replayed, !skipped, true)
          else Error (i, e)
  in
  go 0

let recover ?fault ?(sync = Journal.Sync_always) ?(mode = Strict)
    ?(keep_checkpoints = 1) ?segment_bytes ~storage () =
  let fault = prepare ~caller:"recover" ?fault ~keep_checkpoints storage in
  (* the mode is a damage policy and nothing else: [Strict] raises at
     the first damage, [Salvage] cuts there and carries on *)
  let on_damage exn = if mode = Strict then raise exn in
  let quarantined = ref 0 in
  let quarantine name bytes =
    (* never silently drop damaged bytes: park them in a sidecar the
       operator (or a future repair tool) can inspect *)
    storage.Storage.append (quarantine_name name) bytes;
    storage.Storage.sync (quarantine_name name);
    incr quarantined;
    Stats.incr Stats.Salvage_quarantined
  in
  (* ---- checkpoint: newest verifiable generation, falling back
     generation by generation ---- *)
  let listed = layout storage in
  let candidates = List.rev listed.checkpoints in
  let fallbacks = ref 0 in
  let rec load_checkpoint first_failure = function
    | [] -> (
        match first_failure with
        | None -> `Fresh
        | Some (generation, reason) -> `All_failed (generation, reason))
    | ((generation, name) as candidate) :: rest -> (
        let contents = storage.Storage.read name in
        let verdict =
          match Option.map (verify_checkpoint candidate) contents with
          | None -> Error "vanished during recovery"
          | Some (Error reason) -> Error reason
          | Some (Ok (h, payload)) -> (
              match Snapshot.load payload with
              | db -> Ok (h.Ckpt.first_segment, payload, db)
              | exception Snapshot.Snapshot_error reason -> Error reason)
        in
        match verdict with
        | Ok (first_segment, payload, db) ->
            `Loaded (generation, first_segment, payload, db)
        | Error reason ->
            Stats.incr Stats.Checkpoint_fallback;
            incr fallbacks;
            if mode = Salvage then begin
              (* self-heal: keep the damaged candidate's bytes, but out
                 of the fallback path *)
              Option.iter (quarantine name) contents;
              storage.Storage.remove name
            end;
            load_checkpoint
              (match first_failure with
              | None -> Some (generation, reason)
              | s -> s)
              rest)
  in
  let generation, first_segment, payload, database =
    match load_checkpoint None candidates with
    | `Loaded (generation, first_segment, payload, db) ->
        (generation, first_segment, Some payload, db)
    | `Fresh -> (None, 0, None, Db.create ())
    | `All_failed (generation, reason) ->
        on_damage (Checkpoint_corrupt { generation; reason });
        (None, 0, None, Db.create ())
  in
  (* a salvage retry starts over from the checkpoint bytes verified above *)
  let reload () =
    match payload with
    | Some p -> Snapshot.load p
    | None -> Db.create ()
  in
  (* ---- journal: sealed segments the checkpoint does not cover, in
     sequence order, then the active segment, flattened into the global
     record sequence up to the first damage ---- *)
  let segments =
    Array.of_list
      (List.filter_map
         (fun (seq, name) ->
           if seq >= first_segment then Some (name, true) else None)
         listed.sealed
      @ [ (journal_file, false) ])
    |> Array.mapi (fun s (name, sealed) ->
           (* each segment's records, newest first, tagged with [s] *)
           ( name,
             read_segment storage ~sealed name ~init:[] ~add:(fun acc r off ->
                 (r, s, off) :: acc) ))
  in
  let located = ref [] (* (record, segment, offset), newest first *) in
  let damage = ref None in
  Array.iteri
    (fun s (_, seg) ->
      if !damage = None then begin
        located := seg.records @ !located;
        match seg.ended with
        | Damaged d ->
            on_damage
              (Journal.Journal_corrupt
                 { record = List.length !located; reason = d.Journal.reason });
            damage := Some (s, d.Journal.offset)
        | Complete | Torn_tail -> ()
      end)
    segments;
  let located = Array.of_list (List.rev !located) in
  let records = Array.map (fun (r, _, _) -> r) located in
  let m = Array.length located in
  (* ---- replay, cutting lower at each record that fails to apply ---- *)
  let rec attempt database n =
    match replay ~fault database records n ~whole:(n = m && !damage = None) with
    | Ok outcome -> (database, n, outcome)
    | Error (k, e) ->
        on_damage (Recovery_error { record = k; reason = Printexc.to_string e });
        attempt (reload ()) k
  in
  let database, n, (replayed, skipped, dropped_failed) = attempt database m in
  Stats.add Stats.Journal_replay replayed;
  let cut =
    if n < m then
      let _, s, off = located.(n) in
      Some (s, off)
    else !damage
  in
  (* ---- storage: cut once, at the end ---- *)
  Option.iter
    (fun (s, off) ->
      (* the cut segment's suffix and every later segment go to
         sidecars, never silently dropped *)
      Array.iteri
        (fun i (name, seg) ->
          if i = s then begin
            let len = String.length seg.bytes in
            if len > off then
              quarantine name (String.sub seg.bytes off (len - off));
            if off = 0 then storage.Storage.remove name
            else storage.Storage.truncate name off
          end
          else if i > s then begin
            if seg.records <> [] || seg.ended <> Complete then
              quarantine name seg.bytes;
            storage.Storage.remove name
          end)
        segments)
    cut;
  if dropped_failed then begin
    (* erase the dropped record wherever it lives *)
    let _, s, off = located.(n - 1) in
    storage.Storage.truncate (fst segments.(s)) off
  end;
  let degraded =
    if cut <> None then Some "salvage recovery quarantined damaged journal records"
    else if candidates <> [] && payload = None then
      Some "salvage recovery could not verify any checkpoint generation"
    else None
  in
  let t =
    open_handle ~fault ~sync ~keep_checkpoints ~segment_bytes ~storage
      ~first_segment ~degraded database
  in
  ( t,
    {
      generation;
      fallbacks = !fallbacks;
      replayed;
      skipped;
      dropped_torn =
        cut = None && (snd segments.(Array.length segments - 1)).ended = Torn_tail;
      dropped_failed;
      quarantined = !quarantined;
      degraded = degraded <> None;
    } )

(* A saved snapshot is a checkpoint frame of generation 0 over no
   journal: the one checkpoint layout. *)
let save_snapshot db = Ckpt.encode ~generation:0 ~first_segment:0 (Snapshot.save db)

let load_snapshot data =
  let refuse reason = raise (Checkpoint_corrupt { generation = None; reason }) in
  match Ckpt.decode data with
  | Error reason -> refuse reason
  | Ok (_, payload) -> (
      try Snapshot.load payload with Snapshot.Snapshot_error reason -> refuse reason)

let has_state storage =
  let { checkpoints; sealed; active } = layout storage in
  checkpoints <> [] || sealed <> [] || active
