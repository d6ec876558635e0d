open Relational
open Chronicle_core

(** Semantic analysis: name resolution against a database catalog,
    translation of the surface syntax into summarized-chronicle-algebra
    view definitions, and statement execution against a {!Session}.

    View-definition WHERE clauses are normalized: top-level conjunctions
    become nested selections (σ_{a∧b} = σ_a ∘ σ_b), each conjunct must
    be a Definition 4.1 disjunction of comparisons, and conjuncts that
    mention only chronicle attributes are pushed below the join — which
    both follows the algebra's spirit and lets the affected-view
    registry extract selective guards.  Ad-hoc queries ([SELECT ... FROM
    view-or-relation]) are unrestricted (§2.2: queries over relations
    and persistent views "can be written in any language"); they
    evaluate through the relational-algebra substrate. *)

exception Semantic_error of string

type exec_result =
  | Created of string
  | Defined of { view : string; report : Classify.report }
  | Defined_periodic of { view : string; live : int }
  | Defined_windowed of { view : string; buckets : int }
  | Appended of { chronicle : string; sn : Seqnum.t; count : int }
  | Retracted of { chronicle : string; count : int }
      (** A [RETRACT FROM]: one stored occurrence of each row removed
          and every persistent view unwound (weight [-1] delta). *)
  | Inserted of { relation : string; count : int }
  | Defined_rule of { rule : string; chronicle : string }
  | Info of string
  | Advanced of Seqnum.chronon
  | Rows of Schema.t * Tuple.t list
  | Report of Classify.report

val compile_select : Db.t -> name:string -> Ast.select -> Sca.t
(** Raises {!Semantic_error} (or [Ca.Ill_formed] from the algebra
    checks) on invalid definitions. *)

val compile_query : Session.t -> Ast.query -> Ra.t
(** Resolve an ad-hoc query against views, windowed/periodic views and
    relations. *)

val exec : Session.t -> Ast.stmt -> exec_result option
(** [APPEND INTO] stages its rows in the session's queue and returns
    [None]: its answer is its ack ({!Session.acks}), at every batch
    size.  Every other statement first flushes the queue, so staged
    appends are never observable out of statement order (a failed
    group's error raises here, and its acks carry it too), then
    returns its result. *)

val appended : Session.ack -> exec_result
(** A committed ack as {!Appended}; raises a rejected ack's error. *)

val run_script : Session.t -> string -> exec_result list
(** Parse and execute a whole script: each statement's resolved acks
    as {!Appended}, then its own result. *)

val pp_result : Format.formatter -> exec_result -> unit
