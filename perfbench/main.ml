(* perfbench: the end-to-end benchmark of the chronicle server.

     bench.exe --workload ingest|fanout|mixed --seed N --seconds S --trace 0|1
               [--exe PATH-TO-chronicle_cli.exe]

   --trace 0 drives the shipped server over its socket and reports the
   end-to-end metrics.  --trace 1 adds the in-process replay of the same
   inputs, untraced and traced, and reports the per-layer metrics.  The
   last line of standard output is one JSON object: correct, attempted,
   failed, metrics.  Scratch state lives under perfbench/_run and is
   removed on exit; the traced run's spans are written to
   perfbench/_out/spans-<workload>.tsv. *)

open Relational
module P = Chronicle_net.Protocol
module Wire = Chronicle_net.Wire

let run_dir = "perfbench/_run"
let out_dir = "perfbench/_out"

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

let mean a = if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
let per x n = if n = 0 then 0. else x /. float_of_int n

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
           unit_)
       metrics)

let end_to_end (e : E2e.result) =
  [
    ("setup_s", "s", e.setup_s);
    ("rows_per_s", "1/s", e.rows_per_s);
    ("append_p50_us", "us", e.append_p50_us);
    ("append_p99_us", "us", e.append_p99_us);
    ("server_cpu_us_per_row", "us", e.cpu_us_per_row);
    ("bytes_per_row", "B", e.bytes_per_row);
  ]

(* Time [f] over every element, in microseconds per element; repeated
   until at least 20 ms have passed so the clock's grain does not show. *)
let time_each xs f =
  let n = List.length xs in
  if n = 0 then 0.
  else begin
    let reps = ref 0 and t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.02 do
      List.iter f xs;
      incr reps
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (n * !reps)
  end

let write_spans workload (tr : Replay.tracer) =
  mkdir_p out_dir;
  let oc = open_out (Filename.concat out_dir ("spans-" ^ Gen.workload_name workload ^ ".tsv")) in
  output_string oc "id\tname\treq\tparent\tstart_us\tstop_us\n";
  let base = if Vec.length tr.spans = 0 then 0. else (Vec.get tr.spans 0).start in
  Vec.iteri
    (fun i (s : Replay.span) ->
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%.3f\t%.3f\n" i s.name s.req s.parent
        ((s.start -. base) *. 1e6)
        ((s.stop -. base) *. 1e6))
    tr.spans;
  close_out oc

(* The per-layer metrics, and the self-checks that make their counts
   trustworthy: the traced and the untraced replay of one seed must
   agree exactly on every count and on every response byte. *)
let per_layer (e : E2e.result) (u : Replay.run) (t : Replay.run) ~fail =
  let tr = Option.get t.tracer and lang = Option.get t.lang in
  let n = t.requests in
  let storage = Array.make n 0. and fold = Array.make n 0. and commits = Array.make n false in
  let append_spans = ref [] in
  let view_fold = Hashtbl.create 64 and folds = ref 0 in
  Vec.iter
    (fun (s : Replay.span) ->
      let d = s.stop -. s.start in
      if s.req >= 0 && s.name <> "feed" then begin
        if String.starts_with ~prefix:"fold:" s.name then begin
          fold.(s.req) <- fold.(s.req) +. d;
          if t.kinds.(s.req) = Replay.K_append then incr folds;
          let v = String.sub s.name 5 (String.length s.name - 5) in
          Hashtbl.replace view_fold v (d +. Option.value ~default:0. (Hashtbl.find_opt view_fold v))
        end
        else begin
          storage.(s.req) <- storage.(s.req) +. d;
          if s.name = "storage.append" then begin
            commits.(s.req) <- true;
            append_spans := d :: !append_spans
          end
        end
      end)
    tr.spans;
  let appends = List.filter (fun i -> t.kinds.(i) = Replay.K_append) (List.init n Fun.id) in
  let self i = t.feed_s.(i) -. storage.(i) -. fold.(i) in
  let committing, staging = List.partition (fun i -> commits.(i)) appends in
  let mean_of f l = per (List.fold_left (fun acc i -> acc +. f i) 0. l) (List.length l) in
  let baseline =
    if staging <> [] then mean_of self staging else lang.Replay.parse_us /. 1e6
  in
  let flush_self = mean_of (fun i -> self i -. baseline) committing in
  let feed_self =
    per
      (List.fold_left (fun acc i -> acc +. self i) 0. appends
      -. (flush_self *. float_of_int (List.length committing)))
      (List.length appends)
  in
  let retracts = List.filter (fun i -> t.kinds.(i) = Replay.K_retract) (List.init n Fun.id) in
  let rows = t.rows in
  let count c = Option.value ~default:0 (List.assoc_opt c t.counts) in
  let per_row c = per (float_of_int (count c)) rows in
  let data_frames = Array.sub t.frames 0 (n - 1) in
  let bytes_in = Array.fold_left (fun acc f -> acc + String.length f) 0 data_frames in
  let decode_us =
    time_each (Array.to_list data_frames) (fun f ->
        match Wire.split f ~pos:0 with
        | `Frame (payload, _) -> ignore (P.decode_request payload)
        | `Need_more -> ())
  in
  let encode_us = time_each (Replay.responses t.out) (fun r -> ignore (P.encode_response r)) in
  let recover_total, recover_read, recovered = Option.get t.recover in
  let retract_counter c =
    match retracts with
    | [] ->
        if count c <> 0 then fail (Stats.counter_name c ^ " moved on a pure-append stream");
        float_of_int (count c)
    | l -> per (float_of_int (count c)) (List.length l)
  in
  let heavy = count Stats.Heavy_probe and light = count Stats.Light_fold in
  let untraced_feed = Array.fold_left ( +. ) 0. u.feed_s
  and traced_feed = Array.fold_left ( +. ) 0. t.feed_s in
  (* exactness *)
  (* Group_size_max is a high-water mark, not a sum: a second replay in
     the same process need not raise it *)
  let sums r = List.filter (fun (c, _) -> c <> Stats.Group_size_max) r.Replay.counts in
  if sums u <> sums t then
    fail
      (Format.asprintf "traced and untraced replays counted differently: %a / %a" Stats.pp_diff
         u.counts Stats.pp_diff t.counts);
  if u.out <> t.out then fail "traced and untraced replays answered differently";
  if u.journal_bytes <> t.journal_bytes then fail "traced and untraced journals differ";
  if recovered <> t.journal_records then
    fail
      (Printf.sprintf "replay recovery re-applied %d records, %d were written" recovered
         t.journal_records);
  if u.errors + t.errors > 0 then fail (Printf.sprintf "the replay got %d error responses" (u.errors + t.errors));
  let max_view = Hashtbl.fold (fun _ d acc -> Float.max d acc) view_fold 0. in
  let us x = x *. 1e6 in
  [
    ("net.transport_us", "us", us ((e.wall_s /. float_of_int e.requests) -. mean (Array.sub u.feed_s 0 (n - 1))));
    ("net.feed_self_us", "us", us feed_self);
    ("net.decode_us", "us", decode_us);
    ("net.encode_us", "us", encode_us);
    ("net.bytes_in_per_row", "B/row", per (float_of_int bytes_in) rows);
    ("lang.parse_us", "us", lang.parse_us);
    ("lang.query_compile_us", "us", lang.compile_us);
    ("lang.query_eval_us", "us", lang.eval_us);
    ("lang.render_us", "us", lang.render_us);
    ("lang.query_rows_examined", "count", lang.rows_examined);
    ("durability.flush_self_us", "us", us flush_self);
    ("durability.journal_bytes_per_row", "B/row", per (float_of_int t.journal_bytes) rows);
    ("durability.storage_append_us", "us", us (mean (Array.of_list !append_spans)));
    ("durability.group_size", "count", per (float_of_int (List.length appends)) (List.length committing));
    ("durability.recover_read_us", "us", us recover_read);
    ("durability.replay_us_per_record", "us", per (us (recover_total -. recover_read)) recovered);
    ("chronicle.fold_us_per_row", "us", per (us (Array.fold_left ( +. ) 0. fold)) rows);
    ("chronicle.fold_us_max_view", "us", per (us max_view) rows);
    ("chronicle.views_folded_per_append", "count", per (float_of_int !folds) (List.length appends));
    ("chronicle.retract_us", "us", us (mean_of (fun i -> t.feed_s.(i)) retracts));
    ("chronicle.retract_apply", "count", retract_counter Stats.Retract_apply);
    ("chronicle.weight_cancel", "count", retract_counter Stats.Weight_cancel);
    ("chronicle.aggregate_reprobe", "count", retract_counter Stats.Aggregate_reprobe);
    ("relational.agg_step", "count", per_row Stats.Agg_step);
    ("relational.group_lookup", "count", per_row Stats.Group_lookup);
    ("relational.index_probe", "count", per_row Stats.Index_probe);
    ("relational.tuple_read", "count", per_row Stats.Tuple_read);
    ("relational.tuple_write", "count", per_row Stats.Tuple_write);
    ("relational.plan_cache_miss", "count", per_row Stats.Plan_cache_miss);
    ( "relational.heavy_hit_ratio",
      "ratio",
      if heavy + light = 0 then 0. else float_of_int heavy /. float_of_int (heavy + light) );
    ("gc.minor_words_per_row", "count", per u.minor_words rows);
    ("gc.major_collections", "count", float_of_int u.major_collections);
    ("trace.overhead_frac", "ratio", (traced_feed /. untraced_feed) -. 1.);
    ("lang.query_p50_us", "us", e.query_p50_us);
    ("durability.recover_s", "s", e.recover_s);
    ("server.rss_mb", "MB", e.rss_mb);
  ]

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--exe CLI]"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/chronicle_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "ingest, fanout or mixed");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "1: report the per-layer metrics");
      ("--exe", Arg.Set_string exe, "the chronicle-cli executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let workload =
    match Gen.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  if not (Sys.file_exists !exe) then begin
    prerr_endline ("perfbench: no server executable at " ^ !exe);
    exit 2
  end;
  let seed = !seed and seconds = float_of_int !seconds in
  Proc.rm_rf run_dir;
  mkdir_p run_dir;
  let failures = ref 0 in
  let fail msg =
    incr failures;
    prerr_endline ("perfbench: " ^ msg)
  in
  let code =
    match
      let traced =
        if !trace = 0 then None
        else
          let replay traced = Replay.run ~dir:(Filename.concat run_dir "replay") ~traced workload ~seed in
          (* a first untraced replay warms the process, so neither timed
             replay pays for heap growth the other does not *)
          ignore (replay false);
          let t = replay true in
          let u = replay false in
          Some (u, t)
      in
      let setup_records = Replay.setup_records (Gen.create workload ~seed) in
      let e =
        E2e.run ~exe:!exe ~rundir:run_dir ~workload ~seed ~seconds ~setup_records
      in
      Printf.eprintf
        "perfbench %s seed %d: %d requests in %.2f s; %d retracts (p50 %.0f us, p90 %.0f us)\n%!"
        (Gen.workload_name workload) seed e.requests e.wall_s (Array.length e.retract_us)
        (E2e.median e.retract_us) (E2e.percentile e.retract_us 0.9);
      match traced with
      | None -> (e, end_to_end e, 0)
      | Some (u, t) ->
          write_spans workload (Option.get t.tracer);
          (e, per_layer e u t ~fail, u.requests)
    with
    | e, metrics, replayed ->
        let failed = e.failed + !failures in
        Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
          (failed = 0) (e.attempted + replayed) failed (json_metrics metrics);
        if failed = 0 then 0 else 1
    | exception exn ->
        prerr_endline ("perfbench: " ^ Printexc.to_string exn);
        1
  in
  Proc.rm_rf run_dir;
  exit code
