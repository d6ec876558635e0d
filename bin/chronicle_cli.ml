(* chronicle-cli: run view-definition-language scripts against an
   in-memory chronicle database, or explore one interactively.

     dune exec bin/chronicle_cli.exe -- run script.cdl
     dune exec bin/chronicle_cli.exe -- run --durable DIR script.cdl
     dune exec bin/chronicle_cli.exe -- recover DIR
     dune exec bin/chronicle_cli.exe -- repl
     dune exec bin/chronicle_cli.exe -- demo *)

open Chronicle_lang
open Chronicle_durability

let print_result r = Format.printf "%a@." Analyze.pp_result r

let report_error e =
  match Chronicle_net.Protocol.error_of_exn e with
  | Some (_, message) ->
      Format.eprintf "%s@." message;
      1
  | None -> raise e

let pp_recovery ppf (r : Durable.report) =
  Format.fprintf ppf "checkpoint %s; journal: %d replayed, %d skipped%s%s%s%s%s"
    (match r.generation with
    | Some g -> Printf.sprintf "generation %d loaded" g
    | None -> "absent")
    r.replayed r.skipped
    (if r.dropped_torn then ", torn tail dropped" else "")
    (if r.dropped_failed then ", failed final record dropped" else "")
    (if r.fallbacks > 0 then
       Printf.sprintf ", %d checkpoint fallback(s)" r.fallbacks
     else "")
    (if r.quarantined > 0 then
       Printf.sprintf ", %d quarantined" r.quarantined
     else "")
    (if r.degraded then "; DEGRADED (read-only)" else "")

let report_recovery_error = function
  | Journal.Journal_corrupt { record; reason } ->
      Format.eprintf "journal corrupt at record %d: %s@." record reason;
      1
  | Durable.Recovery_error { record; reason } ->
      Format.eprintf "recovery failed at record %d: %s@." record reason;
      1
  | Durable.Checkpoint_corrupt { generation; reason } ->
      Format.eprintf "checkpoint corrupt%s: %s@."
        (match generation with
        | Some g -> Printf.sprintf " (generation %d)" g
        | None -> "")
        reason;
      1
  | Chronicle_core.Snapshot.Snapshot_error msg ->
      Format.eprintf "checkpoint error: %s@." msg;
      1
  | exn -> raise exn

(* The storage options shared by run, recover and serve. *)
type store = {
  sync : Journal.sync_policy;
  salvage : bool;
  keep_checkpoints : int;
  segment_bytes : int option;
}

(* Recover the durable state in [dir], printing the recovery report, or
   hand back the empty storage to attach to.  A recovery error ends the
   process. *)
let recover_or_fresh o dir =
  let storage = Storage.disk ~dir in
  if not (Durable.has_state storage) then `Fresh storage
  else
    let mode = if o.salvage then Durable.Salvage else Durable.Strict in
    match
      Durable.recover ~sync:o.sync ~mode
        ~keep_checkpoints:o.keep_checkpoints ?segment_bytes:o.segment_bytes ~storage ()
    with
    | d, report ->
        Format.printf "recovered %s: %a@." dir pp_recovery report;
        `Recovered d
    | exception e -> exit (report_recovery_error e)

let attach o storage db =
  Durable.attach ~sync:o.sync ~keep_checkpoints:o.keep_checkpoints
    ?segment_bytes:o.segment_bytes ~storage db

(* The checkpoint a clean exit takes; a degraded instance skips it. *)
let checkpoint_on_exit dir d =
  match Durable.health d with
  | Durable.Degraded reason ->
      Format.printf "degraded (%s): checkpoint skipped@." reason
  | Durable.Healthy -> (
      match Durable.checkpoint d with
      | () -> Format.printf "checkpointed %s@." dir
      | exception Chronicle_core.Snapshot.Snapshot_error msg ->
          Format.eprintf "checkpoint error: %s@." msg;
          exit 1)

let run_file snapshot_in snapshot_out durable_dir crash_after crash_point batch
    o path =
  let ic = open_in path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let base_session () =
    match snapshot_in with
    | None -> Session.create ()
    | Some snap -> (
        match
          Durable.load_snapshot (In_channel.with_open_bin snap In_channel.input_all)
        with
        | db ->
            Format.printf "restored snapshot %s@." snap;
            Session.of_db db
        | exception Durable.Checkpoint_corrupt { reason; _ } ->
            Format.eprintf "snapshot error: %s@." reason;
            exit 1)
  in
  let session, durable =
    match durable_dir with
    | None -> (base_session (), None)
    | Some dir -> (
        match recover_or_fresh o dir with
        | `Recovered d -> (Session.of_db (Durable.db d), Some d)
        | `Fresh storage ->
            let session = base_session () in
            (session, Some (attach o storage (Session.db session))))
  in
  (match (durable, crash_after) with
  | Some d, Some n -> Fault.arm (Durable.fault d) ~after:n crash_point
  | _ -> ());
  (try Session.set_batch session batch
   with Invalid_argument msg ->
     Format.eprintf "%s@." msg;
     exit 1);
  match Parser.parse src with
  | exception e -> report_error e
  | stmts ->
      (* execute statement by statement so partial progress is visible;
         under --batch N an APPEND's ack is deferred until its group
         commits, so staged results queue here and print — in staging
         order, which is watermark order — as soon as the next flush
         resolves them, keeping the output byte-identical to --batch 1 *)
      let pending = Queue.create () in
      let drain_pending () =
        while not (Queue.is_empty pending) do
          print_result (Analyze.resolve_staged session (Queue.pop pending))
        done
      in
      let rec go = function
        | [] -> (
            match drain_pending () with
            | exception Fault.Crash point ->
                Format.printf "simulated crash at %s@." point;
                2
            | exception e -> report_error e
            | () -> (
                Option.iter
                  (fun d -> checkpoint_on_exit (Option.get durable_dir) d)
                  durable;
                match snapshot_out with
                | None -> 0
                | Some snap -> (
                    match
                      Out_channel.with_open_bin snap (fun oc ->
                          output_string oc (Durable.save_snapshot (Session.db session)))
                    with
                    | () ->
                        Format.printf "saved snapshot %s@." snap;
                        0
                    | exception Chronicle_core.Snapshot.Snapshot_error msg ->
                        Format.eprintf "snapshot error: %s@." msg;
                        1)))
        | stmt :: rest -> (
            match
              match Analyze.exec session stmt with
              | Analyze.Staged _ as staged -> Queue.add staged pending
              | result ->
                  drain_pending ();
                  print_result result
            with
            | () -> go rest
            | exception Fault.Crash point ->
                (* the process "dies" here: no checkpoint, no snapshot —
                   the journal keeps the batch's write-ahead record *)
                Format.printf "simulated crash at %s@." point;
                2
            | exception e -> report_error e)
      in
      go stmts

let recover_dir o dir =
  match recover_or_fresh o dir with
  | `Fresh _ ->
      Format.eprintf "no durable state in %s@." dir;
      1
  | `Recovered d ->
      let db = Durable.db d in
      List.iter
        (fun v ->
          let name = Chronicle_core.View.name v in
          Format.printf "view %s: %d row(s)@." name
            (List.length (Chronicle_core.Db.view_contents db name)))
        (Chronicle_core.Db.views db);
      0

let scrub_dir dir =
  let storage = Storage.disk ~dir in
  if not (Durable.has_state storage) then begin
    Format.eprintf "no durable state in %s@." dir;
    1
  end
  else begin
    let inventory = Scrub.run storage in
    Format.printf "%a" Scrub.pp inventory;
    if Scrub.clean inventory then begin
      Format.printf "scrub %s: clean@." dir;
      0
    end
    else begin
      Format.printf "scrub %s: DAMAGED@." dir;
      1
    end
  end

let repl () =
  let session = Session.create () in
  Format.printf
    "chronicle repl — statements end with ';', Ctrl-D to exit.@.Try: CREATE \
     CHRONICLE t (a INT); DEFINE VIEW v AS SELECT a, COUNT(*) AS n FROM \
     CHRONICLE t GROUP BY a;@.";
  let buffer = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buffer = 0 then Format.printf "> @?"
    else Format.printf "… @?";
    match input_line stdin with
    | exception End_of_file -> 0
    | line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        if String.contains line ';' then begin
          Buffer.clear buffer;
          (match Analyze.run_script session text with
          | results -> List.iter print_result results
          | exception e -> ignore (report_error e));
          loop ()
        end
        else loop ()
  in
  loop ()

let demo_script =
  "CREATE CHRONICLE mileage (acct INT, flight STRING, miles INT);\n\
   CREATE RELATION customers (cust INT, state STRING) KEY (cust);\n\
   INSERT INTO customers VALUES (1, 'NJ'), (2, 'NY');\n\
   DEFINE VIEW balance AS SELECT acct, SUM(miles) AS balance, COUNT(*) AS \
   flights FROM CHRONICLE mileage GROUP BY acct;\n\
   DEFINE VIEW by_state AS SELECT state, SUM(miles) AS total FROM CHRONICLE \
   mileage JOIN customers ON acct = cust GROUP BY state;\n\
   APPEND INTO mileage VALUES (1, 'EWR-SFO', 2565);\n\
   APPEND INTO mileage VALUES (2, 'JFK-LAX', 2475), (1, 'SFO-EWR', 2565);\n\
   SHOW VIEW balance;\n\
   SHOW VIEW by_state;\n\
   SHOW CLASSIFY by_state;"

let demo () =
  Format.printf "-- the script:@.%s@.@.-- results:@." demo_script;
  let session = Session.create () in
  match Analyze.run_script session demo_script with
  | results ->
      List.iter print_result results;
      0
  | exception e -> report_error e

(* ---- the server and its client ---- *)

module Server = Chronicle_net.Server
module Client = Chronicle_net.Client
module Protocol = Chronicle_net.Protocol

let serve_sock socket durable_dir batch o =
  let fresh () = Chronicle_core.Db.create () in
  let db, durable =
    match durable_dir with
    | None -> (fresh (), None)
    | Some dir -> (
        match recover_or_fresh o dir with
        | `Recovered d -> (Durable.db d, Some d)
        | `Fresh storage ->
            let db = fresh () in
            (db, Some (attach o storage db)))
  in
  match Server.create ~batch db with
  | exception Invalid_argument msg ->
      Format.eprintf "%s@." msg;
      1
  | server ->
      let lfd = Server.listen_unix socket in
      Server.serve server lfd ~on_ready:(fun () ->
          Format.printf "listening on %s@." socket);
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      Option.iter
        (fun d -> checkpoint_on_exit (Option.get durable_dir) d)
        durable;
      Format.printf "server stopped@.";
      0

let client_run socket fast_append shutdown script_path =
  if script_path = None && not shutdown then begin
    Format.eprintf "client: nothing to do — pass a SCRIPT, --shutdown, or both@.";
    1
  end
  else
    match Client.connect_unix socket with
    | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "cannot connect to %s: %s@." socket
          (Unix.error_message e);
        1
    | c ->
        let code = ref 0 in
        (match script_path with
        | None -> ()
        | Some path -> (
            let ic = open_in path in
            let src = really_input_string ic (in_channel_length ic) in
            close_in ic;
            (* validate locally first, so a bad script reports exactly as
               a local [run] would — and never reaches the server *)
            match Parser.parse src with
            | exception e -> code := report_error e
            | stmts ->
                (if fast_append then
                   (* pair each statement's AST with its source chunk;
                      appends ride the binary fast path, everything else
                      goes as its own source text *)
                   let chunks = Client.split_statements src in
                   if List.length chunks = List.length stmts then
                     List.iter2
                       (fun stmt chunk ->
                         match stmt with
                         | Ast.Append_into { chronicle; rows } ->
                             Client.send c (Protocol.Append { chronicle; rows })
                         | _ -> Client.send c (Protocol.Stmt chunk))
                       stmts chunks
                   else Client.send c (Protocol.Stmt src)
                 else Client.send c (Protocol.Stmt src));
                Client.send c Protocol.Flush;
                let rec loop () =
                  match Client.recv c with
                  | Protocol.Flushed -> ()
                  | Protocol.Result text ->
                      Format.printf "%s@." text;
                      loop ()
                  | Protocol.Ack { chronicle; sn; count } ->
                      Format.printf "appended %d row(s) to %s at sn %a@." count
                        chronicle Chronicle_core.Seqnum.pp sn;
                      loop ()
                  | Protocol.Err { kind = _; message } ->
                      Format.eprintf "%s@." message;
                      code := 1;
                      loop ()
                  | Protocol.Pong | Protocol.Bye -> loop ()
                in
                (match loop () with
                | () -> ()
                | exception End_of_file ->
                    Format.eprintf "connection closed by server@.";
                    code := 1
                | exception Relational.Codec.Decode_error msg ->
                    Format.eprintf "protocol error: %s@." msg;
                    code := 1)));
        (if shutdown then
           match
             Client.send c Protocol.Shutdown;
             Client.recv c
           with
           | Protocol.Bye -> Format.printf "server shutting down@."
           | _ -> ()
           | exception End_of_file -> ()
           | exception Relational.Codec.Decode_error _ -> ());
        Client.close c;
        !code

open Cmdliner

let sync_conv =
  let parse s =
    match Journal.sync_policy_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p =
    Format.pp_print_string ppf (Journal.sync_policy_to_string p)
  in
  Arg.conv (parse, print)

let sync_arg =
  Arg.(
    value
    & opt sync_conv Journal.Sync_always
    & info [ "sync" ] ~docv:"POLICY"
        ~doc:
          "Journal sync policy: $(b,always), $(b,never) or $(b,every:N) \
           (fsync once per N records).")

(* Kept only for perfbench, which passes [--jobs 1]; delete at ROADMAP
   item 12's perfbench edit. *)
let jobs_arg =
  let parse s =
    if s = "1" then Ok ()
    else Error (`Msg "only 1 is accepted: the parallel fold was removed")
  in
  Arg.(
    value
    & opt (conv (parse, fun ppf () -> Format.pp_print_string ppf "1")) ()
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Only $(b,1) is accepted: the parallel fold was removed, and \
           views are maintained by one sequential fold. Kept only for \
           perfbench.")

let salvage_arg =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "Recover the maximal consistent prefix instead of raising on \
           damage: quarantine damaged journal/checkpoint bytes to \
           $(b,.quarantine) sidecars and open the database read-only \
           (degraded).")

let keep_arg =
  Arg.(
    value & opt int 1
    & info [ "keep-checkpoints" ] ~docv:"K"
        ~doc:
          "Checkpoint generations to retain. Every checkpoint writes the \
           next numbered $(b,checkpoint.N) generation over a sealed journal \
           and keeps the newest $(docv) (default 1); with $(docv) >= 2, \
           recovery falls back one generation at a time if the newest is \
           damaged.")

let segment_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "segment-bytes" ] ~docv:"BYTES"
        ~doc:
          "Rotate the journal into sealed $(b,journal.N) segments once the \
           active file would exceed $(docv) bytes (default: unbounded; the \
           journal is sealed only at checkpoints). Corruption is isolated \
           per segment.")

let store_term =
  Term.(
    const (fun sync () salvage keep_checkpoints segment_bytes ->
        { sync; salvage; keep_checkpoints; segment_bytes })
    $ sync_arg $ jobs_arg $ salvage_arg $ keep_arg $ segment_arg)

let run_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SCRIPT" ~doc:"Script file to execute.")
  in
  let snapshot_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "load" ] ~docv:"SNAPSHOT"
          ~doc:
            "Restore the database from a snapshot before the script runs \
             (ignored when $(b,--durable) finds existing state).")
  in
  let snapshot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"SNAPSHOT"
          ~doc:"Save the database to a snapshot after the script succeeds.")
  in
  let durable_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "durable" ] ~docv:"DIR"
          ~doc:
            "Run with write-ahead journaling into $(docv): existing state is \
             recovered first, every append is journaled before it executes, \
             and a checkpoint is taken when the script succeeds.")
  in
  let crash_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after" ] ~docv:"N"
          ~doc:
            "Simulate a crash at the $(b,--crash-point) fault point after \
             $(docv) hits (requires $(b,--durable)); the process stops with \
             exit status 2, leaving the journal for $(b,recover).")
  in
  let crash_point =
    Arg.(
      value
      & opt string "post-journal-write"
      & info [ "crash-point" ] ~docv:"POINT"
          ~doc:
            "Instrumented fault point armed by $(b,--crash-after) (default \
             $(b,post-journal-write); e.g. $(b,post-retract-write), \
             $(b,post-insert-write), $(b,view-fold)).")
  in
  let batch_arg =
    Arg.(
      value
      & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Group commit: stage appends and commit up to $(docv) of them \
             as one journal record and one sync ($(b,1) = every append \
             commits immediately). Output is byte-identical for every \
             value; only the journal's record grouping — and the appends \
             lost to a mid-group crash — changes.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a view-definition-language script.")
    Term.(
      const run_file $ snapshot_in $ snapshot_out $ durable_dir $ crash_after
      $ crash_point $ batch_arg $ store_term $ path)

let recover_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Durable state directory to recover.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild a database from checkpoint + journal and report what was \
          replayed.")
    Term.(const recover_dir $ store_term $ dir)

let scrub_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Durable state directory to verify.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Read-only CRC verification of every checkpoint generation and \
          journal record; exit 0 if clean, 1 if damage was found.")
    Term.(const scrub_dir $ dir)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the server.")

let serve_cmd =
  let durable_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "durable" ] ~docv:"DIR"
          ~doc:
            "Serve with write-ahead journaling into $(docv): existing state \
             is recovered first, every commit is journaled, and a checkpoint \
             is taken on clean shutdown.")
  in
  let batch_arg =
    Arg.(
      value
      & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Initial group-commit staging threshold of every new \
             connection's session (each client changes its own with $(b,SET \
             BATCH)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve one shared database to wire-protocol clients over a \
          Unix-domain socket until a client sends SHUTDOWN.")
    Term.(const serve_sock $ socket_arg $ durable_dir $ batch_arg $ store_term)

let client_cmd =
  let script =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"SCRIPT" ~doc:"Script file to run against the server.")
  in
  let fast =
    Arg.(
      value & flag
      & info [ "fast-append" ]
          ~doc:
            "Parse the script locally and send each $(b,APPEND INTO) as a \
             pre-parsed binary APPEND frame — the server skips its \
             lexer/parser on the append path.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the server to shut down (after the script, if any).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Run a script against a chronicle server; output is byte-identical \
          to a local $(b,run) of the same script.")
    Term.(const client_run $ socket_arg $ fast $ shutdown $ script)

let repl_cmd =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive statement loop.") Term.(const repl $ const ())

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a canned frequent-flyer demo script.")
    Term.(const demo $ const ())

let () =
  let info =
    Cmd.info "chronicle-cli"
      ~doc:"The chronicle data model: declarative persistent views over transaction streams."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; recover_cmd; scrub_cmd; serve_cmd; client_cmd; repl_cmd;
            demo_cmd ]))
