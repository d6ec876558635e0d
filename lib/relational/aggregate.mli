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
