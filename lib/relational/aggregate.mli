(** Incrementally computable aggregation functions.

    The paper admits aggregation functions that are "incrementally
    computable, or decomposable into incremental computation functions":
    computable in O(n) over a group of size n and in O(1) per single-
    tuple increment.  COUNT, SUM, MIN and MAX are directly incremental;
    AVG decomposes into (SUM, COUNT).  Every state also supports
    [merge], which the periodic-view window optimizer (§5.1) uses to
    recombine per-bucket partial states. *)

type func = Count | Sum | Min | Max | Avg | Var | Stddev

(** One aggregation column of a [GROUPBY(R, GL, AL)]: the function, its
    argument attribute ([None] only for [Count], meaning COUNT( * )),
    and the output attribute name. *)
type call = { func : func; arg : string option; alias : string }

val count_star : string -> call
val count : string -> string -> call
val sum : string -> string -> call
val min_ : string -> string -> call
val max_ : string -> string -> call
val avg : string -> string -> call
val var_ : string -> string -> call
val stddev : string -> string -> call

type state

val init : func -> state
val step : func -> state -> Value.t -> state
(** O(1).  Null arguments are skipped for all functions except
    COUNT( * ), mirroring SQL.  Bumps the [Agg_step] counter. *)

type inverse =
  | Inverted of state  (** the state with one [step v] undone *)
  | Reprobe
      (** the function has no inverse for this transition (MIN/MAX losing
          their extremum, or a state inconsistent with the retraction) —
          recompute the group from retained history *)

val unstep : func -> state -> Value.t -> inverse
(** O(1) inverse of {!step} — the weight −1 transition of ℤ-weighted
    deltas.  COUNT, SUM, AVG, VAR and STDDEV invert exactly (null
    arguments are skipped, mirroring {!step}); MIN/MAX answer
    [Reprobe] when the retracted value reaches the current extremum.
    Bumps [Agg_step] like the forward transition. *)

val merge : func -> state -> state -> state
(** Combine two partial states over disjoint tuple sets.  O(1). *)

val final : func -> state -> Value.t
(** Value of the aggregate; [Null] for empty MIN/MAX/AVG/SUM groups
    except COUNT, which is [Int 0]. *)

val batch : func -> Value.t list -> Value.t
(** O(n) from-scratch evaluation (the non-incremental reference). *)

val func_name : func -> string
val func_of_name : string -> func option
val output_ty : func -> Value.ty option -> Value.ty
(** Result type given the argument type ([None] for COUNT( * )). *)

val result_schema : Schema.t -> string list -> call list -> Schema.t
(** Schema of [GROUPBY(R, GL, AL)]: grouping attributes then one
    attribute per call, named by its alias. *)

val pp_call : Format.formatter -> call -> unit

val put_state : Buffer.t -> state -> unit
(** Lossless {!Codec} encoding of an aggregate state (for snapshots). *)

val get_state : Codec.reader -> state
(** Raises {!Codec.Decode_error} on malformed input. *)

(** {2 Cells}

    A group's states as mutable slots stepped in place — the form a
    materialized view folds into, with no allocation per tuple on an
    existing group.  A {!layout} places each call of a group in a few
    slots of three arrays: an int for COUNT, unboxed floats for the
    sums of SUM, AVG, VAR and STDDEV, a value for MIN/MAX.  Every
    transition mirrors {!step}/{!unstep}, so {!states} is, byte for
    byte under {!put_state}, the state the functional fold would hold.
    Cells convert to {!state} only for a dump, a final value or a
    load.  Cell transitions do not bump [Agg_step]; the caller counts
    {!arity} per tuple. *)

type layout

val layout : Schema.t -> call list -> layout
(** The slots of [calls] over tuples of [schema] (argument positions
    resolved once). *)

val arity : layout -> int

type cells = {
  mutable weight : int;
      (** tuples stepped in less tuples stepped out: the group's
          multiplicity *)
  mutable stamp : int;  (** free for the owner; never read here *)
  ints : int array;
  floats : float array;
  vals : Value.t array;
}

val fresh : layout -> cells
(** Cells of an empty group ([weight] and [stamp] 0). *)

val step_cells : layout -> cells -> Tuple.t -> unit
(** {!step} every call with its argument from the tuple; [weight + 1]. *)

val unstep_cells : layout -> cells -> Tuple.t -> bool
(** {!unstep} every call; [weight - 1] when all invert.  [false] when
    some call answers [Reprobe]: the cells may then be partly
    inverted, and the caller must {!reset} and refold the group. *)

val reset : cells -> unit
(** Back to an empty group, in place ([stamp] kept). *)

val copy : cells -> cells

val restore : saved:cells -> cells -> unit
(** Put [saved]'s weight and slots (a {!copy} of the same cells) back. *)

val states : layout -> cells -> state list
val finals : layout -> cells -> Value.t list
(** {!final} of every call. *)

val of_states : layout -> weight:int -> state list -> cells
(** Cells holding [states]; raises [Invalid_argument] when their number
    or kinds do not match the layout's calls. *)
