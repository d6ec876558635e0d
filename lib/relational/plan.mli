(** Physical query plans: compile an {!Ra} expression once, run it many
    times with zero per-call recompilation.

    {!Ra.eval_naive} re-derives [schema_of] at every node on every call,
    recompiles every predicate and projector, and rebuilds every join
    hash table from scratch.  A compiled plan performs all of that
    analysis a single time:

    - schema resolution and static type checks happen at {!compile}
      ([Ra.Type_error] is raised there, not during execution);
    - selections are compiled to position-resolved closures, and
      conjunctive equality selections over a base relation with a
      covering index become index probes ([Stats.Index_scan]) instead of
      full scan + filter;
    - equi-join build tables are memoized across executions, keyed by
      the {!Relation.version}s beneath the build side
      ([Stats.Build_reuse]); any base-relation mutation invalidates them;
    - grouping reuses {!Groupby.compiled}.

    {!compile} bumps [Stats.Plan_compile]; during steady-state
    maintenance of cached plans the per-batch [Predicate_compile] /
    [Projector_compile] counters stay at zero — the constant-factor
    claim the benchmarks measure.

    Holding a plan is the intended usage for any caller that evaluates
    the same expression repeatedly (the chronicle layer caches one plan
    per persistent view); [Ra.eval] itself is [run ∘ compile]. *)

type t

val compile : Ra.t -> t
(** One-time analysis.  Raises [Ra.Type_error] on ill-formed
    expressions (the same errors {!Ra.schema_of} reports). *)

val run : t -> Tuple.t list
(** Execute against the current contents of the underlying relations.
    No recompilation: the only per-call work is data flow. *)

val eval : Ra.t -> Tuple.t list
(** [run ∘ compile]; what {!Ra.eval} dispatches to. *)

val compile_parallel : unit -> Ra.t -> t
(** [compile_parallel () e] is [compile e].  Kept only for perfbench;
    delete at ROADMAP item 12's perfbench edit. *)

val schema : t -> Schema.t
(** Result schema, resolved at compile time. *)

val source : t -> Ra.t
(** The logical expression the plan was compiled from. *)

val pp : Format.formatter -> t -> unit
