open Relational

(** Incremental change propagation through chronicle-algebra
    expressions — the computational content of Theorems 4.1 and 4.2.

    Given one append batch (a set of tuples inserted under a single
    fresh sequence number, possibly into several chronicles of one
    group), [run] computes the set of tuples the batch adds to the
    expression — {e without} accessing the stored chronicles, the
    materialized view, or any intermediate view, for every operator of
    CA.  Only the deliberately non-CA operators ([Ca.CrossChron],
    [Ca.ThetaJoinChron]) fall back to re-reading retained history
    (bumping [Stats.Chronicle_scan]); their cost is what Theorem 4.3
    says cannot be avoided.

    A delta is a Z-set: the difference of two bags, written as its two
    halves, where a tuple of weight [w] appears [|w|] times in one
    half.  An append is the plus half of a delta, a retraction
    (DBSP-style, a delete is the inverse of an insert) the minus half.

    The Δ-rules, from the paper's appendix, on a change [Δ = Δ⁺ − Δ⁻]:
    {ul
    {- linear operators apply their rule to each half:
       Δ(σₚE) = σₚ(ΔE⁺) − σₚ(ΔE⁻), likewise Π;
       Δ(C × R) = ΔC × R, with R's {e current} version (the implicit
       temporal join of §2.3); Δ(C ⋈_key R) = one index probe into R
       per ΔC tuple, and per distinct stage per entry: plans compiled
       through one {!stages} table share each [σ…(C) ⋈_key R] stage,
       and an entry's {!memo} runs it once for all its consumers.}
    {- non-linear operators apply their rule to the at-[sn] slices of
       the base chronicles — for an append, the batch itself:
       Δ(E₁ ∪ E₂) = ΔE₁ ∪ ΔE₂ (set union);
       Δ(E₁ − E₂) = ΔE₁ − ΔE₂ (sound because fresh sequence numbers
       cannot collide with any pre-existing tuple of the group);
       Δ(C₁ ⋈_SN C₂) = ΔC₁ ⋈_SN ΔC₂ (the cross terms are empty for the
       same reason);
       Δ(GROUPBY(E, GL ∋ SN, AL)) = GROUPBY(ΔE, GL, AL) (fresh sequence
       numbers open brand-new groups).
       A CA delta at [sn] depends only on those slices, so under a
       retraction the change is the rule over the slices after the
       mutation minus the rule over the slices before it.}} *)

type zset = { plus : Tuple.t list; minus : Tuple.t list }
(** A Z-set delta in two halves: the occurrences gained ([plus]) and
    lost ([minus]). *)

type batch = (Chron.t * Tuple.t list) list
(** Tagged tuples of each chronicle, all under one sequence number: an
    appended batch, or the at-[sn] slices of a retraction. *)

type change = (Chron.t * zset) list
(** The Z-set change to each chronicle, all under one sequence number. *)

val appended : batch -> change
(** Each chronicle's tuples as the plus half of its change. *)

type plan
(** A compiled Δ-evaluator: schemas resolved, predicates/projectors
    compiled, key-join positions bound — all once.  Running a plan does
    only probe-and-fold work, which is what makes per-append maintenance
    cost a small constant on top of the paper's complexity class. *)

type stages
(** An intern table of key-join stages, one per database (the view
    registry holds it). *)

val stages : unit -> stages

val compile : ?stages:stages -> Ca.t -> plan
(** One-time analysis (bumps [Stats.Plan_compile]).  Raises the same
    schema errors [Ca.schema_of] would.

    With [stages], every key join [σ…(C) ⋈_key R] that no non-linear
    operator sits above — its input a chain of selections and
    projections over one base chronicle — is a stage interned in the
    table: plans whose stages have the same chronicle and relation
    (physically), the same join pairs and structurally equal chains run
    one compiled node.  The plan holds a claim on each such stage until
    {!release}. *)

val release : stages -> plan -> unit
(** Drop the plan's claims; a stage with no claim left leaves the
    table. *)

val stage_consumers : stages -> int list
(** The claims on each interned stage, in intern order. *)

type memo
(** One entry's shared stage outputs.  A stage claimed at least twice
    among the plans the memo was made for has a cell: the first
    consumer that runs it collects its output into the cell, under the
    cell's lock (so consumers may run on several domains), and every
    other consumer streams from the cell.  An exception the stage
    raises is kept in the cell and re-raised to every consumer.  Other
    stages stream as usual.  A memo lives as long as its entry's folds. *)

val memo : plan list -> memo
(** A memo for one entry folded through the given plans.  Creating it
    runs nothing. *)

type sink = Tuple.t -> unit

type stream = plus:sink -> minus:sink -> unit
(** A Z-set delta as a stream: [s ~plus ~minus] pushes the plus half
    into [plus], then the minus half into [minus], each in order. *)

val stream :
  plan -> sn:Seqnum.t -> ?memo:memo -> ?before:batch -> ?after:batch -> change -> stream
(** The change of the expression's output caused by [change] at
    sequence number [sn]; zero recompilation.  Every plan streamed with
    one [memo] must be given the same [sn] and [change].  An append
    passes its batch as plus halves ({!appended}) and no slices.  A
    retraction passes minus halves and, when the plan {!reads_slices},
    the full at-[sn] slices of every base chronicle [before] and
    [after] the mutation; non-linear operators then push the multiset
    difference of their plain evaluation over the two (cancelled
    occurrences bump [Stats.Weight_cancel]).  Raises [Invalid_argument] when a minus
    half reaches a history-reading operator ([Ca.CrossChron],
    [Ca.ThetaJoinChron]): such views must be rematerialized, not
    incrementally unwound.

    Linear operators (the base chronicle, σ, Π, ⋈_key R) are per-tuple
    stages: a tuple flows from the base through them into the sink
    with no list built in between.  ×R and the non-linear operators
    collect their input halves as lists first, and so does a shared
    key-join stage that has a cell in [memo]. *)

val run :
  plan -> sn:Seqnum.t -> ?memo:memo -> ?before:batch -> ?after:batch -> change -> zset
(** The {!stream}'s two halves collected as lists, in stream order. *)

val of_zset : zset -> stream
(** A delta held as lists, as a stream. *)

val reads_slices : plan -> bool
(** Whether the plan holds a non-linear operator, i.e. whether a
    retraction must pass it the at-[sn] slices. *)

val expr : plan -> Ca.t
(** The expression the plan was compiled from. *)

val eval : Ca.t -> sn:Seqnum.t -> batch:batch -> Tuple.t list
(** Tuples added to the expression by an appended batch: the plus half
    of [run (compile e) (appended batch)].  One-shot convenience —
    repeated callers should hold a {!plan} (or use the per-view cache,
    {!View.plan}). *)

val all_fresh : Schema.t -> Seqnum.t -> Tuple.t list -> bool
(** Theorem 4.1 check: every tuple's sequencing attribute equals the
    batch's sequence number (the delta contains only "new sequence
    number tuples").  Vacuously true for schemas without the sequencing
    attribute. *)
