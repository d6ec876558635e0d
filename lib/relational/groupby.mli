(** The [GROUPBY(R, GL, AL)] operator of [MPR90], as used throughout the
    paper: group a tuple collection on attribute list [GL] and evaluate
    the aggregation list [AL] per group.  The result schema is
    [GL ++ aliases(AL)]. *)

val run :
  Schema.t ->
  Tuple.t list ->
  group_by:string list ->
  aggs:Aggregate.call list ->
  Schema.t * Tuple.t list
(** Batch evaluation, O(n) aggregate steps plus one hash lookup per
    tuple.  Output group order follows first appearance. *)

val run_rel :
  Relation.t -> group_by:string list -> aggs:Aggregate.call list -> Schema.t * Tuple.t list

(** {2 Compile-once batch grouping}

    {!run} re-resolves the grouping projector and aggregate argument
    positions on every call; physical plans ({!Plan}, [Delta]) instead
    resolve once at compile time and replay many batches through the
    result. *)

type compiled

val compiled :
  Schema.t -> group_by:string list -> aggs:Aggregate.call list -> compiled
(** One-time name resolution; raises [Schema.Unknown_attribute] like
    {!run} would. *)

val run_compiled : compiled -> Tuple.t list -> Tuple.t list
(** Fold one batch into a fresh group table: same semantics and output
    order as {!run}, zero per-call compilation. *)

val compiled_schema : compiled -> Schema.t

(** {2 Incremental group table}

    A mutable group table supporting per-tuple O(1) (modulo the group
    lookup) incremental steps — the primitive inside persistent-view
    maintenance. *)

type table

val create :
  Schema.t -> group_by:string list -> aggs:Aggregate.call list -> table

val step : table -> Tuple.t -> unit
(** Fold one input tuple into its group (creating the group if new).
    Bumps [Stats.Group_lookup] once and [Stats.Agg_step] per call. *)

val result_schema : table -> Schema.t
val result : table -> Tuple.t list
val group_count : table -> int

val current : table -> Value.t list -> Tuple.t option
(** Output row of the given group key, if the group exists. *)
