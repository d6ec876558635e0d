(* The in-process replay: the same seed and the same request bytes fed
   to the server's protocol machine (Server.accept / Server.feed)
   without a socket, over a database journaling through
   Durable.attach to a directory.  A fixed count of requests is
   replayed, so every count it reports repeats exactly for a seed.

   Untraced, only each feed is timed.  Traced, the bench also records
   spans around the calls it can see into each layer: every feed, every
   Storage.t operation (through a timing wrapper around the record),
   and every view fold (the interval from one Db.set_fold_probe call to
   the next probe, storage call or the end of the feed).  Spans are
   kept in memory and written out at the end. *)

open Relational
open Chronicle_core
open Chronicle_lang
module D = Chronicle_durability
module Server = Chronicle_net.Server
module P = Chronicle_net.Protocol
module Wire = Chronicle_net.Wire

let now = Unix.gettimeofday

type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  req : int;  (** request id, -1 outside requests *)
}

type tracer = {
  spans : span Vec.t;
  mutable feed : int;  (** the open feed span, or -1 *)
  mutable req : int;
  mutable fold : (string * float) option;  (** the open fold span *)
}

let tracer () = { spans = Vec.create (); feed = -1; req = -1; fold = None }

let record tr name start stop =
  ignore (Vec.push tr.spans { name; start; stop; parent = tr.feed; req = tr.req })

let close_fold tr t =
  match tr.fold with
  | Some (view, start) ->
      record tr ("fold:" ^ view) start t;
      tr.fold <- None
  | None -> ()

let timed_storage tr (s : D.Storage.t) : D.Storage.t =
  let timed name f =
    let t0 = now () in
    close_fold tr t0;
    let r = f () in
    record tr name t0 (now ());
    r
  in
  {
    s with
    read = (fun n -> timed "storage.read" (fun () -> s.read n));
    write = (fun n b -> timed "storage.write" (fun () -> s.write n b));
    append = (fun n b -> timed "storage.append" (fun () -> s.append n b));
    sync = (fun n -> timed "storage.sync" (fun () -> s.sync n));
  }

let sync_policy (g : Gen.t) =
  match D.Journal.sync_policy_of_string g.shape.sync with
  | Ok p -> p
  | Error e -> failwith e

(* Response frames of one feed's output. *)
let responses out =
  let rec go pos acc =
    match Wire.split out ~pos with
    | `Frame (payload, next) -> go next (P.decode_response payload :: acc)
    | `Need_more -> List.rev acc
  in
  go 0 []

let is_err = function P.Err _ -> true | _ -> false
let flush_frame = P.encode_request P.Flush

(* Journal records the preload writes, from a replay of it over memory
   storage — what a restart must replay before the measured stream. *)
let setup_records (g : Gen.t) =
  let db = Db.create ~jobs:1 () in
  let d = D.Durable.attach ~sync:(sync_policy g) ~storage:(D.Storage.mem ()) db in
  let conn = Server.accept (Server.create ~batch:g.shape.batch db) in
  List.iter (fun f -> ignore (Server.feed conn f)) (g.setup_stmts @ g.setup_appends @ [ flush_frame ]);
  D.Durable.journal_records d

type kind = K_append | K_query | K_retract | K_flush

type lang = {
  parse_us : float;  (** per data-phase statement *)
  compile_us : float;  (** per point query, and the rest likewise *)
  eval_us : float;
  render_us : float;
  rows_examined : float;
}

(* The ℒ path called layer by layer: Parser.parse on every data-phase
   statement, then each point query through Analyze.compile_query, the
   plan (compiled on the database's pool, as Analyze.exec does) and
   Analyze.pp_result. *)
let lang_costs db ~stmts ~keys =
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let per total n = if n = 0 then 0. else total *. 1e6 /. float_of_int n in
  let parse =
    List.fold_left (fun acc text -> acc +. snd (time (fun () -> Parser.parse text))) 0. stmts
  in
  let session = Session.of_db db in
  let compile = ref 0. and eval = ref 0. and render = ref 0. and reads = ref 0 in
  List.iter
    (fun acct ->
      match Parser.parse (Gen.query_text acct) with
      | [ Ast.Query q ] ->
          let expr, dc = time (fun () -> Analyze.compile_query session q) in
          let s0 = Stats.snapshot () in
          let result, de =
            time (fun () ->
                let plan = Plan.compile_parallel (Db.pool db) expr in
                Analyze.Rows (Plan.schema plan, Plan.run plan))
          in
          reads := !reads + Stats.diff_get s0 (Stats.snapshot ()) Stats.Tuple_read;
          let _, dr = time (fun () -> Format.asprintf "%a" Analyze.pp_result result) in
          compile := !compile +. dc;
          eval := !eval +. de;
          render := !render +. dr
      | _ -> failwith "a point query did not parse to one query")
    keys;
  let nq = List.length keys in
  {
    parse_us = per parse (List.length stmts);
    compile_us = per !compile nq;
    eval_us = per !eval nq;
    render_us = per !render nq;
    rows_examined = (if nq = 0 then 0. else float_of_int !reads /. float_of_int nq);
  }

type run = {
  requests : int;
  rows : int;
  feed_s : float array;  (** per request *)
  kinds : kind array;
  frames : string array;
  out : string;  (** every response byte, in order *)
  errors : int;
  counts : (Stats.counter * int) list;
  journal_bytes : int;
  journal_records : int;
  minor_words : float;
  major_collections : int;
  tracer : tracer option;
  lang : lang option;
  recover : (float * float * int) option;  (** total s, read s, records *)
}

let run ~dir ~traced workload ~seed =
  let g = Gen.create workload ~seed in
  Proc.rm_rf dir;
  let tr = tracer () in
  let disk = D.Storage.disk ~dir in
  let storage = if traced then timed_storage tr disk else disk in
  let db = Db.create ~jobs:1 () in
  let d = D.Durable.attach ~sync:(sync_policy g) ~storage db in
  if traced then
    Db.set_fold_probe db
      (Some
         (fun ~view ~sn:_ ->
           D.Fault.hit (D.Durable.fault d) "view-fold";
           let t = now () in
           close_fold tr t;
           tr.fold <- Some (view, t)));
  let conn = Server.accept (Server.create ~batch:g.shape.batch db) in
  let errors = ref 0 in
  let check out = errors := !errors + List.length (List.filter is_err (responses out)) in
  List.iter (fun f -> check (Server.feed conn f)) (g.setup_stmts @ g.setup_appends @ [ flush_frame ]);
  Vec.clear tr.spans;
  tr.fold <- None;
  let bytes0 = D.Durable.journal_bytes d in
  let ops = List.init g.shape.replay (fun _ -> Gen.next_op g) in
  let frames = Array.of_list (List.map (Gen.frame g) ops @ [ flush_frame ]) in
  let kinds =
    Array.of_list
      (List.map
         (function Gen.Append _ -> K_append | Gen.Query _ -> K_query | Gen.Retract _ -> K_retract)
         ops
      @ [ K_flush ])
  in
  let rows = List.fold_left (fun n op -> n + Gen.op_rows op) 0 ops in
  let n = Array.length frames in
  let feed_s = Array.make n 0. in
  let out = Buffer.create (n * 16) in
  let gc0 = Gc.quick_stat () in
  let st0 = Stats.snapshot () in
  Array.iteri
    (fun i frame ->
      let t0 = now () in
      if traced then begin
        tr.req <- i;
        tr.feed <- Vec.push tr.spans { name = "feed"; start = t0; stop = nan; parent = -1; req = i }
      end;
      let o = Server.feed conn frame in
      let t1 = now () in
      if traced then begin
        close_fold tr t1;
        let id = tr.feed in
        Vec.set tr.spans id { (Vec.get tr.spans id) with stop = t1 };
        tr.feed <- -1;
        tr.req <- -1
      end;
      feed_s.(i) <- t1 -. t0;
      Buffer.add_string out o)
    frames;
  let st1 = Stats.snapshot () in
  let gc1 = Gc.quick_stat () in
  let out = Buffer.contents out in
  check out;
  let journal_bytes = D.Durable.journal_bytes d - bytes0 in
  let lang =
    if not traced then None
    else
      let stmts = List.filter_map (Gen.text g) (List.filter (function Gen.Append _ -> true | _ -> false) ops) in
      let keys =
        match workload with
        | Gen.Mixed -> List.filter_map (function Gen.Query k -> Some k | _ -> None) ops
        | Gen.Ingest | Gen.Fanout -> Gen.probe_keys ~seed (E2e.segments * E2e.probes_per_gap)
      in
      Some (lang_costs db ~stmts ~keys)
  in
  (* recovery, split by the storage wrapper *)
  let recover =
    if not traced then None
    else begin
      D.Durable.detach d;
      let t0 = now () in
      tr.feed <- Vec.push tr.spans { name = "recover"; start = t0; stop = nan; parent = -1; req = -1 };
      let _, report = D.Durable.recover ~sync:(sync_policy g) ~storage () in
      let total = now () -. t0 in
      Vec.set tr.spans tr.feed { (Vec.get tr.spans tr.feed) with stop = t0 +. total };
      tr.feed <- -1;
      let read =
        Vec.fold
          (fun acc s -> if s.name = "storage.read" && s.start >= t0 then acc +. (s.stop -. s.start) else acc)
          0. tr.spans
      in
      Some (total, read, report.D.Durable.replayed)
    end
  in
  {
    requests = n;
    rows;
    feed_s;
    kinds;
    frames;
    out;
    errors = !errors;
    counts = Stats.diff st0 st1;
    journal_bytes;
    journal_records = D.Durable.journal_records d;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    tracer = (if traced then Some tr else None);
    lang;
    recover;
  }
