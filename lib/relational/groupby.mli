(** The [GROUPBY(R, GL, AL)] operator of [MPR90], as used throughout the
    paper: group a tuple collection on attribute list [GL] and evaluate
    the aggregation list [AL] per group.  The result schema is
    [GL ++ aliases(AL)].

    This is the from-scratch evaluation: it partitions its input and
    runs {!Aggregate.batch} per group and call, sharing no code with
    the cells that persistent views and windows fold.  Ad-hoc queries
    ({!Plan}, [Ra.eval_naive]), the summarization reference
    [Sca.eval_summarize] — and with it the audit and the naive
    baseline — and the Δ of a GROUPBY inside a chronicle-algebra body
    run it. *)

val run :
  Schema.t ->
  Tuple.t list ->
  group_by:string list ->
  aggs:Aggregate.call list ->
  Schema.t * Tuple.t list
(** Batch evaluation, O(n) aggregate steps plus one hash lookup per
    tuple ([Stats.Group_lookup] once per tuple, [Stats.Agg_step] once
    per tuple and call).  Output group order follows first
    appearance. *)

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
(** Group one batch: same semantics and output order as {!run}, zero
    per-call compilation. *)
