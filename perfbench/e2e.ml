(* The end-to-end run against the shipped server.

   Set up (spawn `serve` on an empty directory, preload), warm up with a
   fixed count of requests, verify every view against the reference
   fold, SIGKILL the server, restart it on the same directory (its
   replay must report every record written) and verify again.  Then
   measure in [segments] closed-loop segments.  The host's speed drifts
   on the scale of seconds, so the short measurements — another set-up,
   another restart (of a copy of the warmed-up directory) and, on
   ingest and fanout, a batch of point queries — are taken in the gap
   after every segment rather than all at once.  The run ends with a
   last verification. *)

module P = Chronicle_net.Protocol
module Vec = Relational.Vec
open Proc

(* Rates, server CPU per row and append latencies are taken per
   half-second window of the measured segments, query latencies per gap
   (ingest, fanout) or window (mixed); each is then the median over the
   windows, gaps, set-ups or restarts.  The host's speed swings by a
   third from one spell of seconds to the next, so a run reads steadier
   the more spells its windows sample, and the median keeps a burst of
   interference to the few windows it falls in. *)
type result = {
  setup_s : float;
  rows_per_s : float;
  append_p50_us : float;
  append_p99_us : float;
  query_p50_us : float;
  retract_us : float array;
  recover_s : float;
  cpu_us_per_row : float;  (** server CPU over the segments *)
  bytes_per_row : float;  (** over the warm-up *)
  rss_mb : float;
  requests : int;  (** measured requests *)
  wall_s : float;  (** measured wall time *)
  attempted : int;
  failed : int;
}

let segments = 9
let probes_per_gap = 40
let restarts_per_gap = 2
let window_s = 0.5

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let us dt = dt *. 1e6

type tally = { mutable attempted : int; mutable failed : int }

let fail tally fmt =
  Printf.ksprintf
    (fun msg ->
      tally.failed <- tally.failed + 1;
      if tally.failed <= 5 then prerr_endline ("perfbench: " ^ msg))
    fmt

(* Keep at most [window] requests in flight, sending [unit_] at a time
   (a whole server batch, so no group waits on a request not yet sent),
   while [more ()] holds; then drain.  Every response must be the ACK
   of its request's rows. *)
let pump c tally ~window ~unit_ ~more ~next ~on_ack =
  let inflight = Queue.create () in
  let rec loop () =
    if Queue.length inflight + unit_ <= window && more () then begin
      let frames = List.init unit_ (fun _ -> next ()) in
      let t = now () in
      send c (String.concat "" (List.map fst frames));
      List.iter (fun (_, rows) -> Queue.add (t, rows) inflight) frames;
      loop ()
    end
    else if not (Queue.is_empty inflight) then begin
      let resp = recv c in
      let t, rows = Queue.pop inflight in
      let t1 = now () in
      tally.attempted <- tally.attempted + 1;
      (match resp with
      | P.Ack { count; _ } when count = rows -> on_ack t t1 rows
      | P.Err { message; _ } -> fail tally "append refused: %s" message
      | _ -> fail tally "unexpected response to an append");
      loop ()
    end
  in
  loop ()

let flush c tally =
  match call c (P.encode_request P.Flush) with
  | P.Flushed -> ()
  | _ -> fail tally "FLUSH not answered by FLUSHED"

let result_text c tally frame =
  tally.attempted <- tally.attempted + 1;
  match call c frame with
  | P.Result text -> Some text
  | P.Err { message; _ } ->
      fail tally "statement refused: %s" message;
      None
  | _ ->
      fail tally "unexpected response to a statement";
      None

(* The preload: DDL and relation rows one statement at a time, the
   retained history pipelined; ends with a FLUSH. *)
let preload c tally (g : Gen.t) =
  List.iter (fun f -> ignore (result_text c tally f)) g.setup_stmts;
  let rest = ref g.setup_appends in
  pump c tally ~window:64 ~unit_:g.shape.batch
    ~more:(fun () -> !rest <> [])
    ~next:(fun () ->
      match !rest with
      | f :: tl ->
          rest := tl;
          (f, g.shape.rows_per_frame)
      | [] -> assert false)
    ~on_ack:(fun _ _ _ -> ());
  flush c tally

let verify_views c tally (r : Gen.reference) =
  List.iter
    (fun (v : Gen.view) ->
      match result_text c tally (Gen.stmt ("SHOW VIEW " ^ v.name ^ ";")) with
      | Some text ->
          let bad = Gen.check_rows r ~view:v.name text in
          if bad > 0 then fail tally "view %s: %d mismatches" v.name bad
      | None -> ())
    r.vs

let point_query c tally r acct =
  match result_text c tally (Gen.stmt (Gen.query_text acct)) with
  | Some text ->
      let bad = Gen.check_rows r ~view:"balance" ~only:(string_of_int acct) text in
      if bad > 0 then fail tally "point query acct=%d: %d mismatches" acct bad
  | None -> ()

(* The client's state at a window boundary of the measured segments. *)
type checkpoint = {
  t : float;
  cpu : float;  (** server CPU seconds *)
  rows : int;  (** rows acked *)
  appends : int;  (** append latencies noted *)
  queries : int;  (** query latencies noted *)
}

let replayed_records line =
  Scanf.sscanf line "recovered %_s@: checkpoint %_s@; journal: %d replayed" Fun.id

let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let read = In_channel.with_open_bin (Filename.concat src name) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc -> output_string oc read))
    (Sys.readdir src)

let run ~exe ~rundir ~workload ~seed ~seconds ~setup_records =
  let socket = Filename.concat rundir "s.sock" and side = Filename.concat rundir "side.sock" in
  let dir = Filename.concat rundir "db" and snap = Filename.concat rundir "snap" in
  let side_dir = Filename.concat rundir "side" in
  let tally = { attempted = 0; failed = 0 } in
  let g = Gen.create workload ~seed in
  let sh = g.shape in
  let spawn ~socket ~dir = spawn ~exe ~socket ~dir ~sync:sh.sync ~batch:sh.batch in
  let timed_setup ~socket ~dir =
    rm_rf dir;
    let t0 = now () in
    let s = spawn ~socket ~dir in
    let c = connect socket in
    match preload c tally g with
    | () -> (now () -. t0, s, c)
    | exception e ->
        close c;
        kill s;
        raise e
  in
  let setup0, s0, c0 = timed_setup ~socket ~dir in
  let s = ref s0 and c = ref c0 in
  Fun.protect ~finally:(fun () -> close !c; kill !s) @@ fun () ->
  let setup_times = Vec.create () and recover_times = Vec.create () and gap_queries = Vec.create () in
  ignore (Vec.push setup_times setup0);
  let r = Gen.reference g in
  (* on the pipelined workloads the reference folds a second copy of
     the stream between phases, so the client spends its time on the
     wire while the server is measured; on mixed it folds each op as it
     is sent, as the stream's own queries read it *)
  let shadow = Gen.create workload ~seed in
  let catch_up () =
    match workload with
    | Gen.Mixed -> ()
    | Gen.Ingest | Gen.Fanout ->
        while shadow.ops < g.ops do
          Gen.apply r (Gen.next_op shadow)
        done
  in
  let appends = ref 0 and retracts = ref 0 and rows = ref 0 in
  let recording = ref false in
  let append_s = Vec.create () and query_s = Vec.create () and retract_s = Vec.create () in
  let note vec t_sent t_done = if !recording then ignore (Vec.push vec (us (t_done -. t_sent))) in
  let pipelined ~more =
    pump !c tally ~window:sh.window ~unit_:sh.batch ~more
      ~next:(fun () ->
        let op = Gen.next_op g in
        incr appends;
        (Gen.frame g op, Gen.op_rows op))
      ~on_ack:(fun t_sent t_done n ->
        rows := !rows + n;
        note append_s t_sent t_done)
  in
  (* ℒ statements, [sh.window] in flight: they run in send order, so
     the reference folds each op as it is sent, and a point query is
     checked against the reference as it stood when the query was sent *)
  let statements ~more =
    let inflight = Queue.create () in
    let rec loop () =
      if Queue.length inflight < sh.window && more () then begin
        let op = Gen.next_op g in
        let expect =
          match op with
          | Gen.Query acct -> Some (Gen.point r ~view:"balance" (string_of_int acct))
          | Gen.Append _ | Gen.Retract _ ->
              Gen.apply r op;
              None
        in
        let t_sent = now () in
        send !c (Gen.frame g op);
        Queue.add (op, expect, t_sent) inflight;
        loop ()
      end
      else if not (Queue.is_empty inflight) then begin
        let op, expect, t_sent = Queue.pop inflight in
        let resp = recv !c in
        let t_done = now () in
        tally.attempted <- tally.attempted + 1;
        (match (op, resp, expect) with
        | Gen.Append rs, P.Result text, _
          when String.starts_with ~prefix:(Printf.sprintf "appended %d row(s)" (List.length rs)) text ->
            incr appends;
            rows := !rows + List.length rs;
            note append_s t_sent t_done
        | Gen.Query acct, P.Result text, Some e ->
            let bad = Gen.check_rows e ~view:"balance" ~only:(string_of_int acct) text in
            if bad > 0 then fail tally "point query acct=%d: %d mismatches" acct bad;
            note query_s t_sent t_done
        | Gen.Retract _, P.Result "retracted 1 row(s) from txn", _ ->
            incr retracts;
            note retract_s t_sent t_done
        | _, P.Err { message; _ }, _ -> fail tally "statement refused: %s" message
        | _ -> fail tally "unexpected response to a statement");
        loop ()
      end
    in
    loop ()
  in
  let phase ~more =
    match workload with
    | Gen.Mixed -> statements ~more
    | Gen.Ingest | Gen.Fanout -> pipelined ~more
  in
  (* warm-up: a fixed count of requests, so the journal it leaves — and
     so bytes_per_row and the replay a restart does — repeats exactly
     for a seed *)
  let bytes_setup = dir_bytes dir in
  phase ~more:(fun () -> g.ops < sh.warmup);
  catch_up ();
  flush !c tally;
  let bytes_per_row = float_of_int (dir_bytes dir - bytes_setup) /. float_of_int !rows in
  verify_views !c tally r;
  let records =
    setup_records
    + (match workload with
      | Gen.Mixed -> !appends + !retracts
      | Gen.Ingest | Gen.Fanout -> !appends / sh.batch)
  in
  (* a restart replays set-up and warm-up and must report every record *)
  let restart ~socket ~dir =
    let s = spawn ~socket ~dir in
    (match s.recovered with
    | Some line -> (
        match replayed_records line with
        | n when n = records -> ()
        | n -> fail tally "restart replayed %d records, %d were written" n records
        | exception _ -> fail tally "unreadable recovery line: %s" line)
    | None -> fail tally "restart printed no recovery line");
    ignore (Vec.push recover_times s.ready_s);
    s
  in
  copy_dir dir snap;
  close !c;
  kill !s;
  s := restart ~socket ~dir;
  c := connect socket;
  verify_views !c tally r;
  (* the gap after a segment: the main server idles meanwhile *)
  let gap () =
    let t, s2, c2 = timed_setup ~socket:side ~dir:side_dir in
    close c2;
    kill s2;
    ignore (Vec.push setup_times t);
    for _ = 1 to restarts_per_gap do
      copy_dir snap side_dir;
      kill (restart ~socket:side ~dir:side_dir)
    done;
    match workload with
    | Gen.Mixed -> ()
    | Gen.Ingest | Gen.Fanout ->
        let lat =
          Array.of_list
            (List.map
               (fun acct ->
                 let t_sent = now () in
                 point_query !c tally r acct;
                 us (now () -. t_sent))
               (Gen.probe_keys ~seed:(seed + Vec.length setup_times) probes_per_gap))
        in
        ignore (Vec.push gap_queries (median lat))
  in
  (* the measured segments, cut into windows at checkpoints *)
  let seg_s = seconds /. float_of_int segments in
  (* short runs still cut every segment into windows *)
  let window_s = Float.min window_s (seg_s /. 2.) in
  let windows = Vec.create () in
  let ops0 = g.ops and wall = ref 0. in
  for k = 0 to segments - 1 do
    let checkpoint () =
      { t = now (); cpu = cpu_s !s; rows = !rows; appends = Vec.length append_s; queries = Vec.length query_s }
    in
    let last = ref (checkpoint ()) in
    let t0 = !last.t in
    let deadline = t0 +. seg_s in
    recording := true;
    phase ~more:(fun () ->
        let t = now () in
        if t >= !last.t +. window_s then begin
          let cp = checkpoint () in
          ignore (Vec.push windows (!last, cp));
          last := cp
        end;
        t < deadline);
    recording := false;
    wall := !wall +. (now () -. t0);
    catch_up ();
    if k < segments - 1 then gap ()
  done;
  let requests = g.ops - ops0 in
  flush !c tally;
  gap ();
  verify_views !c tally r;
  let of_vec v = Array.of_list (Vec.to_list v) in
  let windows = of_vec windows in
  let each f = Array.map (fun (a, b) -> f a b) windows in
  let slice v a b = Array.init (b - a) (fun i -> Vec.get v (a + i)) in
  (* a window that noted no latency of a kind has none to give *)
  let sampled a = Array.of_list (List.filter Float.is_finite (Array.to_list a)) in
  let rates = each (fun a b -> float_of_int (b.rows - a.rows) /. (b.t -. a.t)) in
  let cpus = each (fun a b -> us (b.cpu -. a.cpu) /. float_of_int (max 1 (b.rows - a.rows))) in
  let p50s = sampled (each (fun a b -> median (slice append_s a.appends b.appends))) in
  let p99s = sampled (each (fun a b -> percentile (slice append_s a.appends b.appends) 0.99)) in
  let query_p50s =
    match workload with
    | Gen.Mixed -> sampled (each (fun a b -> median (slice query_s a.queries b.queries)))
    | Gen.Ingest | Gen.Fanout -> of_vec gap_queries
  in
  (* every sample behind every summary, for judging a run's spread *)
  let show name a =
    Printf.eprintf "window %s: [%s]\n%!" name
      (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.6g") a)))
  in
  show "rows_per_s" rates;
  show "cpu_us_per_row" cpus;
  show "append_p50_us" p50s;
  show "append_p99_us" p99s;
  show "query_p50_us" query_p50s;
  show "setup_s" (of_vec setup_times);
  show "recover_s" (of_vec recover_times);
  {
    setup_s = median (of_vec setup_times);
    rows_per_s = median rates;
    append_p50_us = median p50s;
    append_p99_us = median p99s;
    query_p50_us = median query_p50s;
    retract_us = of_vec retract_s;
    recover_s = median (of_vec recover_times);
    cpu_us_per_row = median cpus;
    bytes_per_row;
    rss_mb = vm_hwm_mb !s;
    requests;
    wall_s = !wall;
    attempted = tally.attempted;
    failed = tally.failed;
  }
