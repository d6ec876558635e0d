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

(* One atomic cell per counter: the transaction path folds the deltas
   of independent views on several domains at once, and every fold
   bumps these counters.  [fetch_and_add] keeps accounting exact under
   that parallelism (no lost updates); on the jobs = 1 path the cost is
   one uncontended atomic RMW, and the observable values are identical
   to the old plain-int implementation. *)
let counts = Array.init 31 (fun _ -> Atomic.make 0)

let incr c = Atomic.incr counts.(slot c)
let add c n = ignore (Atomic.fetch_and_add counts.(slot c) n)
let get c = Atomic.get counts.(slot c)

(* High-water counters (Group_size_max): a CAS loop so concurrent
   recorders can never shrink the maximum; monotone between [reset]s
   like every other cell, so snapshot monotonicity still holds. *)
let record_max c n =
  let cell = counts.(slot c) in
  let rec loop () =
    let cur = Atomic.get cell in
    if n > cur && not (Atomic.compare_and_set cell cur n) then loop ()
  in
  loop ()

type snapshot = int array

(* Torn-read safety: each cell is read with exactly one atomic load and
   the loaded value is stored straight into the fresh result array —
   never re-read, never assembled from partial words.  Consequences,
   valid at any parallelism degree:

   - every per-counter value in a snapshot is a value the counter
     actually held at the instant of its load (no phantom values);
   - counters only grow between [reset]s, so snapshots taken in
     sequence by one domain are {e pointwise monotone} even while other
     domains bump concurrently (asserted by the jobs = 4 stress test in
     test_parallel.ml);
   - every bump lands in exactly one of any two bracketing snapshots,
     so before/after differencing over a region that starts and ends
     quiescent is exact — and with jobs = 1 exact, full stop.

   The vector as a whole is still not a single global cut (loads of
   different cells happen at slightly different instants); no consumer
   in this codebase needs one. *)
let snapshot () = Array.init (Array.length counts) (fun i -> Atomic.get counts.(i))
let reset () = Array.iter (fun a -> Atomic.set a 0) counts

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
