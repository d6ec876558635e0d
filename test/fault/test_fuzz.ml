(* Storage-corruption fuzzing.

   Random workloads are run durably to completion under random
   generation/segment configurations; then random bit-flips and
   truncations are applied to the surviving checkpoint + journal bytes.
   The properties:

   - {b Strict} recovery either succeeds or raises one of the typed
     recovery errors ({!Journal.Journal_corrupt}, {!Durable.Recovery_error},
     {!Durable.Checkpoint_corrupt}, {!Snapshot.Snapshot_error}) — never a
     bare [Failure], assertion, or out-of-bounds exception.
   - {b Salvage} recovery {e never} raises: every corruption collapses
     to a maximal consistent prefix plus quarantine sidecars, and the
     instance's health agrees with the report.
   - When strict recovery succeeds, salvage recovers the identical
     state (fallback alone is not damage worth degrading over).
   - Storage after salvage is self-healed: a subsequent strict recovery
     succeeds.
   - A flipped high bit in the length field of a non-final record of
     the active journal is damage, not a torn tail: as the only
     corruption, strict recovery raises and salvage quarantines. *)

open Chronicle_core
open Chronicle_durability

let vi i = Relational.Value.Int i
let tup = Relational.Tuple.make

let schema =
  Relational.Schema.make
    [ ("acct", Relational.Value.TInt); ("miles", Relational.Value.TInt) ]

let mk_db () =
  let db = Db.create () in
  (* Full retention so the workload can carry Retract ops (Ev_retract
     records interleave with appends/groups in the fuzzed journal) *)
  ignore (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage" schema);
  ignore
    (Db.define_view db
       (Sca.define ~name:"balance"
          ~body:(Ca.Chronicle (Db.chronicle db "mileage"))
          (Sca.Group_agg
             ( [ "acct" ],
               [
                 Relational.Aggregate.sum "miles" "balance";
                 Relational.Aggregate.count_star "n";
               ] ))));
  db

type op =
  | Append of (int * int) list
  | Group of (int * int) list list
  | Clock of int
  | Checkpoint
  | Retract of int (* retract the n oldest retained rows, if any *)

let row (a, m) = tup [ vi a; vi m ]

let apply d db = function
  | Append rows -> ignore (Db.append db "mileage" (List.map row rows))
  | Group parts ->
      ignore
        (Db.append_group db
           (List.map (fun rows -> [ ("mileage", List.map row rows) ]) parts))
  | Clock n ->
      Db.advance_clock db (Chronicle_core.Group.now (Db.default_group db) + n)
  | Checkpoint -> Durable.checkpoint d
  | Retract n -> (
      let stored = Chron.stored (Db.chronicle db "mileage") in
      let rec take k = function
        | tagged :: rest when k > 0 ->
            Array.sub tagged 1 (Array.length tagged - 1) :: take (k - 1) rest
        | _ -> []
      in
      match take n stored with
      | [] -> ()
      | victims -> ignore (Db.retract db "mileage" victims))

(* One fuzz case: a workload, a durability configuration, and a list of
   corruptions (name picked by index into the sorted surviving names;
   offsets as raw ints reduced modulo the victim's length).  A [`Len]
   corruption always hits the active journal: a bit of the high length
   byte of a record picked among all but the last. *)
type case = {
  ops : op list;
  keep : int;
  segment_bytes : int option;
  corruptions : (int * [ `Flip of int * int | `Trunc of int | `Len of int ]) list;
}

let case_gen =
  QCheck.Gen.(
    let rows =
      list_size (int_range 0 3) (pair (int_range 1 4) (int_range 0 99))
    in
    let op =
      frequency
        [
          (5, map (fun r -> Append r) rows);
          (2, map (fun ps -> Group ps) (list_size (int_range 1 3) rows));
          (2, map (fun n -> Clock (n + 1)) (int_bound 2));
          (2, return Checkpoint);
          (2, map (fun n -> Retract (n + 1)) (int_bound 2));
        ]
    in
    let corruption =
      pair (int_bound 1000)
        (frequency
           [
             ( 3,
               map2 (fun b bit -> `Flip (b, bit)) (int_bound 4000)
                 (int_bound 7) );
             (1, map (fun t -> `Trunc t) (int_bound 4000));
             (1, map (fun bit -> `Len bit) (int_bound 7));
           ])
    in
    map
      (fun ((ops, keep, seg), corruptions) ->
        { ops; keep; segment_bytes = seg; corruptions })
      (pair
         (triple
            (list_size (int_range 1 10) op)
            (int_range 1 3)
            (oneofl [ None; Some 200; Some 500 ]))
         (list_size (int_range 1 4) corruption)))

let show_case c =
  Printf.sprintf "keep=%d seg=%s ops=%d corruptions=[%s]" c.keep
    (match c.segment_bytes with None -> "-" | Some n -> string_of_int n)
    (List.length c.ops)
    (String.concat ";"
       (List.map
          (fun (p, k) ->
            match k with
            | `Flip (b, bit) -> Printf.sprintf "%d:flip(%d,%d)" p b bit
            | `Trunc t -> Printf.sprintf "%d:trunc(%d)" p t
            | `Len bit -> Printf.sprintf "%d:len(%d)" p bit)
          c.corruptions))

let clone_storage (src : Storage.t) =
  let dst = Storage.mem () in
  List.iter
    (fun name ->
      match src.Storage.read name with
      | Some bytes -> dst.Storage.write name bytes
      | None -> ())
    (src.Storage.list ());
  dst

(* Apply one corruption; true when it flipped a non-final record's
   length in the active journal. *)
let corrupt (storage : Storage.t) (pick, kind) =
  match (kind, storage.Storage.list ()) with
  | `Len bit, _ -> (
      let records =
        match storage.Storage.read "journal" with
        | Some contents -> fst (Journal.scan contents)
        | None -> []
      in
      match records with
      | [] | [ _ ] -> false
      | _ ->
          let _, offset = List.nth records (pick mod (List.length records - 1)) in
          Fault.flip_bit storage ~name:"journal" ~byte:offset ~bit;
          true)
  | _, [] -> false
  | ((`Flip _ | `Trunc _) as kind), names ->
      let name = List.nth names (pick mod List.length names) in
      let len = String.length (Option.get (storage.Storage.read name)) in
      (match kind with
      | `Flip (b, bit) when len > 0 ->
          Fault.flip_bit storage ~name ~byte:(b mod len) ~bit
      | `Flip _ -> ()
      | `Trunc t -> storage.Storage.truncate name (t mod (len + 1)));
      false

let typed_recovery_error = function
  | Journal.Journal_corrupt _ | Durable.Recovery_error _
  | Durable.Checkpoint_corrupt _ | Snapshot.Snapshot_error _ ->
      true
  | _ -> false

let run_case c =
  (* grow the durable state *)
  let storage = Storage.mem () in
  let db = mk_db () in
  let d =
    Durable.attach ~keep_checkpoints:c.keep ?segment_bytes:c.segment_bytes
      ~storage db
  in
  List.iter (apply d db) c.ops;
  Durable.detach d;
  (* damage it *)
  let only_length_flip = List.map (corrupt storage) c.corruptions = [ true ] in
  (* strict: success or typed error *)
  let strict_state =
    match Durable.recover ~storage:(clone_storage storage) () with
    | d, _ ->
        let s = Snapshot.save (Durable.db d) in
        Durable.detach d;
        Some s
    | exception e ->
        if not (typed_recovery_error e) then
          QCheck.Test.fail_reportf "strict recovery raised untyped %s on %s"
            (Printexc.to_string e) (show_case c);
        None
  in
  if only_length_flip && strict_state <> None then
    QCheck.Test.fail_reportf "strict recovery dropped a length-damaged suffix on %s"
      (show_case c);
  (* salvage: never raises; health agrees with the report *)
  let salvaged = clone_storage storage in
  (match
     Durable.recover ~mode:Durable.Salvage ~storage:salvaged ()
   with
  | d, report ->
      let state = Snapshot.save (Durable.db d) in
      (match (Durable.health d, report.Durable.degraded) with
      | Durable.Degraded _, true | Durable.Healthy, false -> ()
      | _ ->
          QCheck.Test.fail_reportf "health disagrees with report on %s"
            (show_case c));
      if only_length_flip && report.Durable.quarantined = 0 then
        QCheck.Test.fail_reportf "salvage quarantined nothing on %s" (show_case c);
      (match strict_state with
      | Some s when s <> state ->
          QCheck.Test.fail_reportf
            "salvage diverged from successful strict recovery on %s"
            (show_case c)
      | _ -> ());
      Durable.detach d
  | exception e ->
      QCheck.Test.fail_reportf "salvage recovery raised %s on %s"
        (Printexc.to_string e) (show_case c));
  (* self-healed: strict recovery of the salvaged storage succeeds *)
  (match Durable.recover ~storage:salvaged () with
  | d, _ -> Durable.detach d
  | exception e ->
      QCheck.Test.fail_reportf "post-salvage strict recovery raised %s on %s"
        (Printexc.to_string e) (show_case c));
  true

let fuzz_corrupted_recovery =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:220 ~name:"corrupted-storage recovery fuzz"
       (QCheck.make ~print:show_case case_gen)
       run_case)

let () =
  Alcotest.run "chronicle-fuzz"
    [ ("fuzz", [ fuzz_corrupted_recovery ]) ]
