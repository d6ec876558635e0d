(** Global operation counters.

    The complexity claims of the chronicle paper are stated "modulo index
    lookups" and in terms of tuples touched, not wall-clock time.  Every
    hot path in the engine bumps one of these counters so that tests and
    benchmarks can verify a complexity *shape* (e.g. "zero chronicle
    tuples scanned per append", "O(log |R|) index probes") independently
    of machine noise. *)

type counter =
  | Index_probe      (** one key lookup in a hash or B+-tree index *)
  | Index_node_visit (** one B+-tree node traversed (log-factor witness) *)
  | Tuple_read       (** one tuple materialized or inspected *)
  | Tuple_write      (** one tuple inserted/updated in a relation or view *)
  | Agg_step         (** one incremental aggregate-state transition *)
  | Group_lookup     (** one group-key localization in a persistent view *)
  | Chronicle_scan   (** one *stored* chronicle tuple read back (should be
                         0 during incremental maintenance) *)
  | Plan_compile     (** one physical-plan compilation ({!Plan.compile} or
                         {!Delta.compile}); steady-state maintenance should
                         show 0 per batch *)
  | Plan_cache_hit   (** one per-view plan-cache hit on the maintenance path *)
  | Plan_cache_miss  (** one plan-cache miss (first use, or recompile after
                         redefinition) *)
  | Index_scan       (** one selection answered by an index probe instead of
                         a full scan + filter (select-pushdown) *)
  | Build_reuse      (** one hash-join build table reused because the build
                         side's relation versions were unchanged *)
  | Predicate_compile  (** one [Predicate.compile] name-resolution pass *)
  | Projector_compile  (** one [Tuple.projector] position-resolution pass *)
  | Journal_append   (** one transaction record written to the write-ahead
                         journal before any state mutation *)
  | Journal_bytes    (** bytes written to the journal (via {!add}) *)
  | Journal_replay   (** one journal record replayed through the normal
                         delta path during recovery *)
  | Checkpoint       (** one atomic checkpoint (tmp-write + rename +
                         journal truncation) completed *)
  | Rollback         (** one transactional append rolled back after a
                         mid-batch failure (no partial state observable) *)
  | Staged_appends   (** one append accepted into a group-commit staging
                         queue (acked later, in watermark order) *)
  | Group_commit     (** one multi-append group committed under a single
                         write-ahead record (one journal append + one
                         sync for the whole group) *)
  | Group_size_max   (** high-water mark: the largest group (in appends)
                         committed since the last {!reset} — maintained
                         with {!record_max}, not additive *)
  | Sync_retry       (** one transient storage-sync failure absorbed by the
                         durability layer's bounded retry/backoff loop *)
  | Scrub_record     (** one journal record CRC-verified by a read-only
                         {!Scrub} pass *)
  | Checkpoint_fallback
                     (** one damaged checkpoint generation skipped during
                         recovery in favour of an older one *)
  | Salvage_quarantined
                     (** one damaged journal suffix moved to a quarantine
                         sidecar by salvage recovery *)
  | Heavy_probe      (** never incremented: kept only because perfbench
                         reads it for [relational.heavy_hit_ratio] *)
  | Light_fold       (** one key-join index probe *)
  | Retract_apply    (** one {!Db.retract} operation applied (journaled,
                         every affected view maintained under weight −1) *)
  | Weight_cancel    (** one output tuple whose before/after occurrences
                         cancelled while diffing a non-linear operator's
                         at-sn slice under retraction *)
  | Aggregate_reprobe
                     (** one view group whose MIN/MAX state could not be
                         inverted and was recomputed from retained
                         history (the bounded re-probe fallback) *)

val incr : counter -> unit
val add : counter -> int -> unit
val get : counter -> int
val record_max : counter -> int -> unit
(** [record_max c n] raises counter [c] to [n] if [n] is larger (never
    shrinks).  For high-water counters such as
    {!Group_size_max}; differencing such a counter across a region
    yields a bound, not a sum. *)

val all : counter list
(** Every counter, in slot order (for exhaustive iteration in tests and
    benchmark reports). *)

(** A snapshot of all counters, for before/after differencing. *)
type snapshot

val snapshot : unit -> snapshot

val reset : unit -> unit

(** [diff before after] = counts accumulated between the two snapshots. *)
val diff : snapshot -> snapshot -> (counter * int) list

val diff_get : snapshot -> snapshot -> counter -> int
val pp_diff : Format.formatter -> (counter * int) list -> unit
val counter_name : counter -> string
