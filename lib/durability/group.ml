open Relational
open Chronicle_core

(* This module is the *commit* group (a batch of staged appends drained
   under one journal record); [Cg] is the chronicle group (the
   clock/watermark scope of Chronicle_core). *)
module Cg = Chronicle_core.Group

type outcome = Pending | Acked of Seqnum.t | Rejected of exn

type ticket = { mutable outcome : outcome }

type staged = {
  id : int; (* staging order, for queue restoration after a failed flush *)
  ticket : ticket;
  sgroup : string;
  sbatch : (string * Tuple.t list) list;
}

type t = {
  db : Db.t;
  mutable limit : int;
  mutable queue : staged list; (* newest first *)
  mutable queued : int;
  mutable next_id : int;
  mutable flushing : bool;
}

let create ?(batch = 1) db =
  if batch < 1 then invalid_arg "Group.create: batch threshold must be >= 1";
  { db; limit = batch; queue = []; queued = 0; next_id = 0; flushing = false }

let db t = t.db
let batch t = t.limit
let pending t = t.queued

(* ---- the committer ---- *)

let ack s sn = s.ticket.outcome <- Acked sn
let reject e s = s.ticket.outcome <- Rejected e

(* Commit one chronicle group's partition of the drained queue: a group
   of one through the plain per-append path, keeping its commit
   byte-identical to an unstaged append; anything larger as one atomic
   [Db.append_group] under a single write-ahead record.  On failure
   every ticket of the partition is rejected and the failure
   re-raises. *)
let commit_part t gname staged =
  match
    match staged with
    | [ s ] -> [ Db.append_multi t.db ~group:gname s.sbatch ]
    | staged -> Db.append_group t.db ~group:gname (List.map (fun s -> s.sbatch) staged)
  with
  | sns -> List.iter2 ack staged sns
  | exception e ->
      List.iter (reject e) staged;
      raise e

let flush t =
  if not t.flushing && t.queue <> [] then begin
    t.flushing <- true;
    Fun.protect ~finally:(fun () -> t.flushing <- false) @@ fun () ->
    let items = List.rev t.queue in
    t.queue <- [];
    t.queued <- 0;
    (* partition by chronicle group, preserving staging order within
       each partition and ordering partitions by first appearance (in
       practice a flush holds a single group) *)
    let order = ref [] and parts = Hashtbl.create 4 in
    List.iter
      (fun s ->
        match Hashtbl.find_opt parts s.sgroup with
        | Some cell -> cell := s :: !cell
        | None ->
            let cell = ref [ s ] in
            Hashtbl.add parts s.sgroup cell;
            order := s.sgroup :: !order)
      items;
    let rec commit = function
      | [] -> ()
      | gname :: rest -> (
          let staged = List.rev !(Hashtbl.find parts gname) in
          match commit_part t gname staged with
          | () -> commit rest
          | exception e ->
              (* untouched partitions go back on the queue in staging
                 order, still pending; the failure propagates to the
                 flusher *)
              let unprocessed =
                List.sort
                  (fun a b -> compare a.id b.id)
                  (List.concat_map (fun g -> !(Hashtbl.find parts g)) rest)
              in
              t.queue <- t.queue @ List.rev unprocessed;
              t.queued <- t.queued + List.length unprocessed;
              raise e)
    in
    commit (List.rev !order)
  end

let set_batch t n =
  if n < 1 then invalid_arg "Group.set_batch: batch threshold must be >= 1";
  t.limit <- n;
  if t.queued >= n then flush t

(* ---- staging ---- *)

let stage t ?group:gname batch =
  (* eager validation (Db's own batch check): an append that could never
     commit fails here, synchronously, and is never enqueued — so a
     staged append can only fail later through its whole group
     aborting *)
  Db.validate_batch t.db ?group:gname batch;
  let sgroup =
    match gname with Some n -> n | None -> Cg.name (Db.default_group t.db)
  in
  let ticket = { outcome = Pending } in
  let s = { id = t.next_id; ticket; sgroup; sbatch = batch } in
  t.next_id <- t.next_id + 1;
  t.queue <- s :: t.queue;
  t.queued <- t.queued + 1;
  Stats.incr Stats.Staged_appends;
  (* a failing threshold flush has rejected the tickets it attempted:
     the failure is theirs to report, not this call's *)
  (if t.queued >= t.limit then try flush t with _ -> ());
  ticket

let resolved ticket =
  match ticket.outcome with
  | Pending -> None
  | Acked sn -> Some (Ok sn)
  | Rejected e -> Some (Error e)

let await t ticket =
  (match ticket.outcome with Pending -> flush t | _ -> ());
  match ticket.outcome with
  | Acked sn -> Ok sn
  | Rejected e -> Error e
  | Pending -> invalid_arg "Group.await: ticket is not in this stager's queue"
