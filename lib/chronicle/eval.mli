open Relational

(** Reference (non-incremental) evaluation of chronicle-algebra
    expressions over {e retained} chronicle history.

    This is the semantics the incremental engine ({!Delta}) is checked
    against, and the engine inside the recomputation baselines.  It
    requires complete history: evaluating over a chronicle whose
    retention policy has discarded tuples raises [Chron.Not_retained].
    Every base tuple read bumps [Stats.Chronicle_scan] (via
    [Chron.scan]), which is exactly the cost the paper's languages are
    designed to avoid. *)

val chronicle_tuples : Chron.t -> Tuple.t list
(** Retained tuples of a base chronicle; raises [Chron.Not_retained] if
    the retention policy lost any part of the history. *)

val eval : Ca.t -> Tuple.t list
(** Full evaluation (including the non-CA constructors, which here pose
    no difficulty — it is only their {e incremental} maintenance that is
    expensive). *)

val eval_over : Ca.t -> Chron.t -> Tuple.t list -> Tuple.t list
(** [eval_over e c rows] is {!eval} with [c]'s retained history
    replaced by [rows] (tagged tuples, oldest first).  Other base
    chronicles are read in full. *)

val eval_before : Ca.t -> Seqnum.t -> Tuple.t list
(** [eval_before e sn] = the value of [e] restricted to tuples with
    sequence number < [sn] — the "old" state used by the Δ-rules of the
    non-CA operators. *)
