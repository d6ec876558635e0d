open Relational

(** The chronicle algebra (CA) of Definition 4.1, with its variants
    CA₁ and CA_⋈ (Definition 4.2).

    Every CA expression maps chronicles (and relations) to a chronicle
    in the same chronicle group (Lemma 4.1).  The constructors mirror
    the paper's operators:

    - selection with a predicate that is a disjunction of comparisons;
    - projection retaining the sequencing attribute;
    - natural equijoin of two chronicles on the sequencing attribute;
    - union and difference within one chronicle group;
    - grouping/aggregation with the sequencing attribute grouped on;
    - cartesian product with a relation (implicitly a temporal join —
      each chronicle tuple sees the relation version current at its
      sequence number, §2.3); and, for CA_⋈, the key-join restriction
      guaranteeing at most a constant number of matches.

    Two additional constructors, {!CrossChron} and {!ThetaJoinChron},
    are deliberately {e outside} CA: Theorem 4.3 shows that adding
    either the cross product or a non-equijoin between chronicles breaks
    the chronicle-size independence.  They are representable so that the
    classifier can reject them and the benchmarks can measure exactly
    how they break (Experiment E1); {!check} refuses them unless
    [allow_non_ca] is set. *)

type t =
  | Chronicle of Chron.t  (** a base chronicle *)
  | Select of Predicate.t * t
  | Project of string list * t
      (** attribute list must include [Seqnum.attr] *)
  | SeqJoin of t * t
      (** natural equijoin on the sequencing attribute; the right-hand
          [sn] is projected out; remaining attribute names must be
          disjoint *)
  | Union of t * t
  | Diff of t * t
  | GroupBySeq of string list * Aggregate.call list * t
      (** grouping list must include [Seqnum.attr] *)
  | ProductRel of t * Relation.t
      (** [C × R]: full CA; result size grows by a factor |R| *)
  | KeyJoinRel of t * Relation.t * (string * string) list
      (** CA_⋈: equijoin [(chronicle attr, relation attr)] whose right
          side covers a key of [R], so at most one tuple matches; the
          relation's join attributes are dropped from the result *)
  | CrossChron of t * t  (** NOT in CA (Theorem 4.3) *)
  | ThetaJoinChron of Predicate.t * t * t  (** NOT in CA (Theorem 4.3) *)

exception Ill_formed of string

val schema_of : t -> Schema.t
(** Schema of the expression's result (for chronicle-valued expressions,
    includes [Seqnum.attr]; the non-CA constructors yield two sequencing
    columns, the right one renamed ["r.sn"]).  Raises {!Ill_formed} on
    type errors. *)

val check : ?allow_non_ca:bool -> t -> unit
(** Validate well-formedness: schemas line up, projections and grouping
    lists retain the sequencing attribute, all chronicles share one
    group, selections use the Definition 4.1 predicate form, key joins
    actually cover a key.  Raises {!Ill_formed} otherwise.  With
    [allow_non_ca:true], {!CrossChron}/{!ThetaJoinChron} pass structural
    checks (used only by baselines and benchmarks). *)

val group_of : t -> Group.t
(** The chronicle group of the expression (Lemma 4.1). Raises
    {!Ill_formed} if members disagree. *)

val chronicles : t -> Chron.t list
(** Base chronicles mentioned, without duplicates. *)

val relations : t -> Relation.t list

val depends_on : t -> Chron.t -> bool

val reads_history : t -> bool
(** [true] iff the expression's Δ-maintenance reads retained chronicle
    history beyond the batch being folded — i.e. it contains one of the
    non-CA joins ({!CrossChron}/{!ThetaJoinChron}), whose Δ pairs the
    batch against every earlier retained tuple.  Views over CA proper
    fold each batch from the batch alone (Theorem 4.2); a
    history-reading view has no minus fold, so a retraction
    rematerializes it. *)

val column_source : t -> string -> (Chron.t * int) option
(** [column_source e a]: when [e]'s attribute [a] is a copy of a column
    of a base chronicle, reached only through selections, projections
    and products or key joins with relations, that chronicle and the
    column's position in its stored (tagged) tuples.  Every output
    tuple of such an [e] then carries, at [a], the value its one source
    row holds at that position. *)

val unions : t -> int
(** Number of union operators (the [u] of Theorem 4.2). *)

val joins : t -> int
(** Number of equijoins and (relation or chronicle) products (the [j] of
    Theorem 4.2). *)

val pp : Format.formatter -> t -> unit
