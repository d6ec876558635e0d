type counter =
  | Index_probe
  | Index_node_visit
  | Tuple_read
  | Tuple_write
  | Agg_step
  | Group_lookup
  | Chronicle_scan
  | Plan_compile
  | Plan_cache_hit
  | Plan_cache_miss
  | Index_scan
  | Build_reuse
  | Predicate_compile
  | Projector_compile
  | Journal_append
  | Journal_bytes
  | Journal_replay
  | Checkpoint
  | Rollback
  | Staged_appends
  | Group_commit
  | Group_size_max
  | Sync_retry
  | Scrub_record
  | Checkpoint_fallback
  | Salvage_quarantined
  | Heavy_probe
  | Light_fold
  | Retract_apply
  | Weight_cancel
  | Aggregate_reprobe

let all =
  [ Index_probe; Index_node_visit; Tuple_read; Tuple_write; Agg_step;
    Group_lookup; Chronicle_scan; Plan_compile; Plan_cache_hit;
    Plan_cache_miss; Index_scan; Build_reuse; Predicate_compile;
    Projector_compile; Journal_append; Journal_bytes; Journal_replay;
    Checkpoint; Rollback; Staged_appends; Group_commit; Group_size_max;
    Sync_retry; Scrub_record; Checkpoint_fallback; Salvage_quarantined;
    Heavy_probe; Light_fold; Retract_apply; Weight_cancel; Aggregate_reprobe ]

let slot = function
  | Index_probe -> 0
  | Index_node_visit -> 1
  | Tuple_read -> 2
  | Tuple_write -> 3
  | Agg_step -> 4
  | Group_lookup -> 5
  | Chronicle_scan -> 6
  | Plan_compile -> 7
  | Plan_cache_hit -> 8
  | Plan_cache_miss -> 9
  | Index_scan -> 10
  | Build_reuse -> 11
  | Predicate_compile -> 12
  | Projector_compile -> 13
  | Journal_append -> 14
  | Journal_bytes -> 15
  | Journal_replay -> 16
  | Checkpoint -> 17
  | Rollback -> 18
  | Staged_appends -> 19
  | Group_commit -> 20
  | Group_size_max -> 21
  | Sync_retry -> 22
  | Scrub_record -> 23
  | Checkpoint_fallback -> 24
  | Salvage_quarantined -> 25
  | Heavy_probe -> 26
  | Light_fold -> 27
  | Retract_apply -> 28
  | Weight_cancel -> 29
  | Aggregate_reprobe -> 30

let counter_name = function
  | Index_probe -> "index_probe"
  | Index_node_visit -> "index_node_visit"
  | Tuple_read -> "tuple_read"
  | Tuple_write -> "tuple_write"
  | Agg_step -> "agg_step"
  | Group_lookup -> "group_lookup"
  | Chronicle_scan -> "chronicle_scan"
  | Plan_compile -> "plan_compile"
  | Plan_cache_hit -> "plan_cache_hit"
  | Plan_cache_miss -> "plan_cache_miss"
  | Index_scan -> "index_scan"
  | Build_reuse -> "build_reuse"
  | Predicate_compile -> "predicate_compile"
  | Projector_compile -> "projector_compile"
  | Journal_append -> "journal_append"
  | Journal_bytes -> "journal_bytes"
  | Journal_replay -> "journal_replay"
  | Checkpoint -> "checkpoint"
  | Rollback -> "rollback"
  | Staged_appends -> "staged_appends"
  | Group_commit -> "group_commit"
  | Group_size_max -> "group_size_max"
  | Sync_retry -> "sync_retry"
  | Scrub_record -> "scrub_record"
  | Checkpoint_fallback -> "checkpoint_fallback"
  | Salvage_quarantined -> "salvage_quarantined"
  | Heavy_probe -> "heavy_probe"
  | Light_fold -> "light_fold"
  | Retract_apply -> "retract_apply"
  | Weight_cancel -> "weight_cancel"
  | Aggregate_reprobe -> "aggregate_reprobe"

let counts = Array.make 31 0

let incr c = counts.(slot c) <- counts.(slot c) + 1
let add c n = counts.(slot c) <- counts.(slot c) + n
let get c = counts.(slot c)

(* High-water counters (Group_size_max) only ever grow between [reset]s. *)
let record_max c n = counts.(slot c) <- max counts.(slot c) n

type snapshot = int array

let snapshot () = Array.copy counts
let reset () = Array.fill counts 0 (Array.length counts) 0

let diff before after =
  List.filter_map
    (fun c ->
      let d = after.(slot c) - before.(slot c) in
      if d = 0 then None else Some (c, d))
    all

let diff_get before after c = after.(slot c) - before.(slot c)

let pp_diff ppf d =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    (fun ppf (c, n) -> Format.fprintf ppf "%s=%d" (counter_name c) n)
    ppf d
