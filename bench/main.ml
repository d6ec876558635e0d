(* Benchmark harness: one experiment per claim of the paper (the paper
   has no numbered tables/figures; see DESIGN.md section 3 for the
   claim-to-experiment index and EXPERIMENTS.md for recorded results).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe E3 E4      -- run a subset
     dune exec bench/main.exe micro      -- bechamel micro-benchmarks *)

let experiments =
  [
    ("E1", E1_relational_algebra.run);
    ("E2", E2_delta_cost.run);
    ("E3", E3_view_maintenance.run);
    ("E4", E4_chronicle_independence.run);
    ("E5", E5_moving_window.run);
    ("E6", E6_affected_views.run);
    ("E7", E7_batch_incremental.run);
    ("E8", E8_throughput.run);
    ("E9", E9_theorems.run);
    ("E10", E10_event_detection.run);
    ("E11", E11_rewriter.run);
    ("E12", E12_snapshot.run);
    ("E13", E13_durability.run);
    ("E14", E14_fold_cost.run);
    ("E15", E15_recovery.run);
    ("E17", E17_group_commit.run);
    ("E18", E18_scrub_salvage.run);
    ("E20", E20_server.run);
    ("E21", E21_retract.run);
    ("E22", E22_shared_stages.run);
    ("micro", Micro.run);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let requested =
    match args with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested;
  print_newline ()
