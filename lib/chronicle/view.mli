open Relational

(** Materialized persistent views with Theorem 4.4 maintenance:
    O(t · log|V|) time per batch of t body-delta tuples, O(|V|) space,
    and no access to the chronicle or the (virtual) chronicle-algebra
    body.

    The group table is backed either by a hash map (expected O(1)
    per group localization — the IM-Constant story of SCA₁) or by a
    B+-tree (worst-case O(log |V|), Theorem 4.4's bound, plus ordered
    iteration); choose with [~index]. *)

type t

val create : ?index:Index.kind -> Sca.t -> t
(** Materialize an (initially empty) persistent view.  Default backing
    index is [Hash]. *)

val of_initial : ?index:Index.kind -> Sca.t -> Tuple.t list -> t
(** Materialize over an existing body value (used when a view is
    defined after chronicles already carry retained history): folds the
    given body tuples as one initial delta. *)

val def : t -> Sca.t
val name : t -> string
val schema : t -> Schema.t
val index_kind : t -> Index.kind

val apply :
  ?reprobe:(Value.t list list -> Tuple.t list) -> t -> Delta.stream -> unit
(** Fold a Z-set body delta (from {!Delta.stream}, or {!Delta.of_zset}
    for one held as lists) into the materialization: the plus half,
    then the minus half, each in order, tuple by tuple as the stream
    delivers them.  A plus tuple adds one occurrence; a minus tuple
    retracts one, and entries whose hidden multiplicity reaches zero
    disappear from the view (O(1) amortised: a hash backing leaves a
    ghost slot, compacted once ghosts pass half its order vector).
    COUNT/SUM-class aggregates invert in O(1) per tuple
    ({!Aggregate.unstep_cells}); the MIN/MAX groups losing their extremum are
    recomputed from a single call of [reprobe keys] — the body's output
    over the already-mutated base, covering at least the groups whose
    keys (group-by values, in order) are listed; tuples of other groups
    are ignored — bumping [Stats.Aggregate_reprobe] once per such group
    ([Invalid_argument] without [reprobe]).  Raises [Invalid_argument]
    on a retraction the materialization cannot account for (absent row
    or group).  Under an active transaction the fold is logged, so
    {!rollback_txn} undoes it.

    Cost: per tuple, one hash of the key columns (copied into a buffer
    of the fold) and one lookup — O(1) expected on a hash backing,
    O(log |V|) on a tree — then one in-place step of the group's
    aggregate cells ({!Aggregate.step_cells}).  On a hash backing a
    tuple folding into an existing entry allocates nothing; a new entry
    allocates its key and cells, and the first touch of an entry in a
    transaction allocates its undo record.  Work counters
    ([Group_lookup], [Index_probe], [Agg_step], [Tuple_write]) are
    added to [Stats] once per fold, with the same totals as one bump
    per event. *)

val multiplicity : t -> Value.t list -> int
(** Hidden ℤ-multiplicity of the entry with the given logical key
    (0 if absent): the occurrences supporting it.  Observable set
    semantics and aggregate results do not depend on it. *)

(** {2 Plan cache}

    Each view carries at most one compiled Δ-plan for its body
    ({!Delta.compile}); the transaction path runs it per batch, so
    steady-state maintenance performs zero schema derivations,
    predicate compilations or projector constructions.  The cache is
    keyed by the view object itself: redefining a view builds a new
    view, hence a fresh compile ([Stats.Plan_cache_miss] +
    [Stats.Plan_compile]). *)

val plan : ?stages:Delta.stages -> t -> Delta.plan
(** The cached body plan; compiles on first use
    ([Stats.Plan_cache_miss]), sharing key-join stages through
    [stages] ({!Delta.compile}), afterwards bumps
    [Stats.Plan_cache_hit]. *)

(** {2 Transactional batches}

    {!Db} brackets the maintenance of every affected view — by an
    append's or a retraction's folds, or a rematerialization — with
    [begin_txn] … [commit_txn], and calls [rollback_txn] on all of them if {e any} step raises — so no
    partially-maintained view (nor a fully-maintained sibling of a
    failed one) is ever observable.  While a transaction is active the
    view records an undo log: entries it creates and removes, and
    pre-touch copies of the entries it steps.  Cost is O(delta), zero
    when the batch does not reach the view. *)

val begin_txn : t -> unit
(** Raises [Invalid_argument] if a transaction is already active. *)

val commit_txn : t -> unit
(** Keep the folds since {!begin_txn}; drop the undo log.  No-op
    without an active transaction. *)

val rollback_txn : t -> unit
(** Undo every fold since {!begin_txn}: remove created entries, put
    removed ones back in their old place, restore touched ones, reset
    the batch counter.  Raises [Invalid_argument] without an active
    transaction. *)

val replace : t -> Tuple.t list -> unit
(** Replace the contents with a fold of the given body tuples as one
    batch — the rematerialization of a history-reading view after a
    retraction.  O(|V|), and logged under an active transaction like
    any fold. *)

val lookup : t -> Value.t list -> Tuple.t option
(** Summary-query point lookup by the view's logical key
    ([Sca.group_attrs]): the paper's "sub-second summary query".  For
    projection views the key is the full tuple. *)

val size : t -> int
(** |V|: number of materialized rows (groups). *)

val to_list : t -> Tuple.t list
(** Current contents.  Hash-backed views list in insertion order,
    tree-backed views in key order. *)

val iter : (Tuple.t -> unit) -> t -> unit

val materialize : t -> Relation.t
(** Copy the current contents into a fresh relation (for ad-hoc [Ra]
    queries over the view). *)

val maintained_batches : t -> int
(** Number of deltas folded in so far, appends' and retractions'. *)

(** {2 Snapshots}

    Persistent views must survive restarts without replaying the
    chronicle (which was never stored); dump/load expose the exact
    materialization state, hidden multiplicities included, so a
    restored view stays correct under later retractions. *)

type dump =
  | Groups_dump of (Value.t list * Aggregate.cells) list
      (** key and a copy of the group's cells (its multiplicity is
          their [weight]), over {!Sca.layout} of the definition *)
  | Rows_dump of (Value.t list * int) list  (** key, multiplicity *)

val dump : t -> dump

val load : t -> dump -> unit
(** Restore into a freshly created view of the same definition; raises
    [Invalid_argument] if the view is non-empty, the dump shape does
    not match the summarization kind, or a group's cells have another
    shape than the view's layout. *)

val pp : Format.formatter -> t -> unit
