(** Heavy-light partitioning of join-input keys (Abo-Khamis et al.,
    "Maintaining Queries under Updates Using Heavy-Light Partitioning
    of the Input Relations"), specialized to the chronicle append path.

    A [t] is the partition state of {e one} compiled key-join site
    (one [Ca.KeyJoinRel] node of one view's Δ-plan).  Keys arriving in
    append deltas are counted with a bounded approximate-frequency
    table; a key whose count crosses the threshold is {e promoted}: its
    matched-tuple run against the opposite relation side is
    materialized once (via chunked bounded probes, so the run is
    byte-identical to what the lazy path would compute) and every later
    probe for that key is answered from the cached run without touching
    the relation.  Keys below the threshold stay {e light} and keep the
    existing lazy probe/scan.  Any mutation of the relation (detected
    through {!Relation.version}) demotes every heavy key — cached runs
    are only ever served at the exact relation version they were built
    at, which is what keeps the partitioned fold byte-identical to the
    sequential oracle at every parallelism degree.

    The state is ephemeral: it is never checkpointed or snapshotted,
    and recovery rebuilds it deterministically by replaying appends. *)

type t

val create : ?threshold:int -> unit -> t
(** [threshold <= 0] (the default) selects the adaptive policy: start
    at a small base and double whenever the heavy set outgrows its
    budget, demoting keys that fall under the new bar.  A positive
    [threshold] is a fixed promotion bar.  Count decay caps what any
    key's frequency can reach, so a bar of 65536 or more is treated as
    an explicit off-switch: probes skip tracking entirely and run the
    plain lazy fold (the pre-partition maintenance path, byte for
    byte). *)

val iter_matches :
  t ->
  Relation.t ->
  attrs:string list ->
  project:(Tuple.t -> Tuple.t) ->
  Value.t list ->
  ('a -> Tuple.t -> unit) ->
  'a ->
  unit
(** [iter_matches t rel ~attrs ~project key f x] calls [f x] on each
    tuple of [List.map project (Relation.lookup rel ~attrs key)], in
    order: served from the heavy cache when [key] is heavy
    ([Stats.Heavy_probe]) and computed lazily otherwise
    ([Stats.Light_fold]), with promotion/demotion bookkeeping on the
    side.  The tuples (contents {e and} order) are always those of the
    lazy expression above; no list is built for a light key. *)

val matches :
  t ->
  Relation.t ->
  attrs:string list ->
  project:(Tuple.t -> Tuple.t) ->
  Value.t list ->
  Tuple.t list
(** The tuples {!iter_matches} visits, as a list. *)

val threshold : t -> int
(** The current promotion bar (adaptive instances may have raised it
    above the base). *)

val heavy_count : t -> int
(** Number of keys currently holding materialized state. *)

val is_heavy : t -> Value.t list -> bool

val p_promote : string
(** ["heavy-promote"] — probe point hit immediately before a key's
    materialized run is installed. *)

val p_demote : string
(** ["heavy-demote"] — probe point hit immediately before a heavy
    key's state is torn down. *)

val set_probe : (string -> unit) option -> unit
(** Install (or clear) the global transition probe, called with
    {!p_promote} / {!p_demote} right {e before} the corresponding state
    change — the fault-injection hook: a probe that raises aborts the
    surrounding append mid-maintenance with the partition state no
    further along than the sequential oracle's, so the standard
    rollback + replay machinery recovers an identical database. *)
