open Relational

(** The summarized chronicle algebra (SCA) of Definition 4.3.

    A persistent view is a chronicle-algebra body χ followed by a
    {e summarization step} that eliminates the sequencing attribute and
    maps the chronicle into a relation:

    - projection with the sequencing attribute projected out; or
    - grouping with aggregation where the grouping list does not
      include the sequencing attribute (aggregates must be
      incrementally computable).

    If χ ∈ CA₁ the language is SCA₁; if χ ∈ CA_⋈ it is SCA_⋈; both are
    classified by {!Classify}. *)

type summarize =
  | Project_out of string list
      (** result attributes; must not include [Seqnum.attr] *)
  | Group_agg of string list * Aggregate.call list
      (** grouping list (without [Seqnum.attr]) and aggregation list *)

type t

val define : ?allow_non_ca:bool -> name:string -> body:Ca.t -> summarize -> t
(** Validates the body with [Ca.check] and the summarization step's
    attribute constraints; raises [Ca.Ill_formed] otherwise.
    [allow_non_ca] is for baselines/benchmarks only. *)

val name : t -> string
val body : t -> Ca.t
val summarize : t -> summarize

val schema : t -> Schema.t
(** Schema of the persistent view (no sequencing attribute). *)

val group_attrs : t -> string list
(** The view's logical key: the projected attributes for
    [Project_out], the grouping attributes for [Group_agg]. *)

val layout : t -> Aggregate.layout
(** The aggregate cells of one group of the view over its body's
    tuples (no calls for [Project_out]). *)

val eval_summarize : t -> Tuple.t list -> Tuple.t list
(** Batch (non-incremental) application of the summarization step to a
    body value: the reference semantics that incremental maintenance is
    tested against. *)

val pp : Format.formatter -> t -> unit
