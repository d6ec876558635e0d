(** Incrementally computable aggregation functions.

    The paper admits aggregation functions that are "incrementally
    computable, or decomposable into incremental computation functions":
    computable in O(n) over a group of size n and in O(1) per single-
    tuple increment.  COUNT, SUM, MIN and MAX are directly incremental;
    AVG decomposes into (SUM, COUNT), VAR and STDDEV into (COUNT, SUM,
    sum of squares).

    One incremental representation serves every maintained aggregate:
    {!cells}, mutable slots stepped in place.  Persistent views fold
    their groups into cells; the §5.1 moving window keeps one cell
    block per bucket and recombines them with {!merge_cells}.  {!batch}
    is the separate from-scratch reference, behind GROUPBY. *)

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

val batch : func -> Value.t list -> Value.t
(** O(n) from-scratch evaluation over a group's argument values (the
    non-incremental reference).  Null values are skipped for every
    function (COUNT( * ) passes a non-null per tuple), mirroring SQL;
    empty MIN/MAX/AVG/SUM/VAR/STDDEV are [Null], empty COUNT [Int 0].
    Bumps [Agg_step] once per value. *)

val func_name : func -> string
val func_of_name : string -> func option
val output_ty : func -> Value.ty option -> Value.ty
(** Result type given the argument type ([None] for COUNT( * )). *)

val result_schema : Schema.t -> string list -> call list -> Schema.t
(** Schema of [GROUPBY(R, GL, AL)]: grouping attributes then one
    attribute per call, named by its alias. *)

val pp_call : Format.formatter -> call -> unit

(** {2 Cells}

    A group's states as mutable slots stepped in place — the form a
    materialized view folds into and a window bucket holds, with no
    allocation per tuple on an existing group.  A {!layout} places each
    call of a group in a few slots of three arrays: ints for COUNT,
    unboxed floats for the sums of SUM, AVG, VAR and STDDEV, a value
    for MIN/MAX.  Stepping a group's tuples in order gives, bit for
    bit, {!batch} over the same values in the same order.  Cell
    transitions do not bump [Agg_step]; the caller counts {!arity} per
    tuple. *)

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
(** Step every call with its argument from the tuple (a null argument
    leaves its call unchanged; COUNT( * ) counts every tuple);
    [weight + 1].  O(1). *)

val unstep_cells : layout -> cells -> Tuple.t -> bool
(** The inverse of {!step_cells}, the weight −1 transition of
    ℤ-weighted deltas: COUNT, SUM, AVG, VAR and STDDEV invert exactly;
    [weight - 1] when all invert.  [false] when some call has no
    inverse — MIN/MAX losing their extremum, or cells that never saw
    the value: the cells may then be partly inverted, and the caller
    must {!reset} and refold the group. *)

val merge_cells : layout -> into:cells -> cells -> unit
(** Fold the second cells, over a tuple set disjoint from [into]'s,
    into [into]: counts, sums and weights add ([into]'s partial on the
    left), MIN/MAX keep the extremum ([into]'s on a tie).  O(1) per
    call. *)

val reset : cells -> unit
(** Back to an empty group, in place ([stamp] kept). *)

val copy : cells -> cells

val restore : saved:cells -> cells -> unit
(** Put [saved]'s weight and slots back: a {!copy} of the same cells,
    or any cells of the same layout.  Raises [Invalid_argument] when
    [saved]'s slots have another shape. *)

val finals : layout -> cells -> Value.t list
(** The value of every call: [Null] for empty MIN/MAX/AVG/SUM/VAR/
    STDDEV, [Int 0] for an empty COUNT. *)

(** {2 Encoding}

    Each call's slots are written as a tagged state: the bytes
    snapshots, checkpoints and session snapshots hold. *)

val put_cells : layout -> Buffer.t -> cells -> unit
(** Every call's state, as a {!Codec} list ([weight] is not written). *)

val get_cells : layout -> Codec.reader -> cells
(** Fresh cells ([weight] 0) from {!put_cells} bytes; raises
    {!Codec.Decode_error} on an unknown state tag, one of another
    function, or a count that does not match the layout. *)
