open Relational

(** History-less composite-event detection over a chronicle.

    Each rule watches one chronicle, correlates events by a key
    (e.g. the account number), and keeps — per key — a bounded set of
    partial pattern instances.  An appended event advances instances by
    pattern derivatives, fires completed ones, opens a fresh instance,
    and discards instances whose [within] deadline (chronons since the
    instance's first event) passed.  No stored chronicle history is
    ever read: exactly the "history-less evaluation" the paper equates
    with incremental view maintenance of the event algebra (§6). *)

type rule = {
  rule_name : string;
  pattern : Pattern.t;
  key : string list;  (** correlation attributes of the chronicle *)
  within : int option;  (** deadline in chronons from the first event *)
  cooldown : int option;
      (** after firing for a key, suppress further occurrences of this
          rule for that key until this many chronons have passed *)
  reset_on_match : bool;
      (** discard the key's partial instances when the rule fires —
          avoids the burst of overlapping matches a hot window
          otherwise produces *)
}

val rule :
  name:string ->
  pattern:Pattern.t ->
  key:string list ->
  ?within:int ->
  ?cooldown:int ->
  ?reset_on_match:bool ->
  unit ->
  rule
(** Builder with the usual defaults (no deadline, no cooldown, keep
    instances on match). *)

(** A fired composite event. *)
type occurrence = {
  rule : string;
  key_values : Value.t list;
  started_at : Seqnum.chronon;
  fired_at : Seqnum.chronon;
  fired_sn : Seqnum.t;
}

type t

val create : ?max_instances_per_key:int -> Chron.t -> t
(** [max_instances_per_key] (default 64) bounds partial-instance state;
    overflow drops the oldest instance and counts in
    {!dropped_instances}. *)

val add_rule : t -> rule -> unit
(** Raises [Invalid_argument] on duplicate rule names or key attributes
    missing from the chronicle schema. *)

val on_match : t -> (occurrence -> unit) -> unit

val observe : t -> sn:Seqnum.t -> Tuple.t list -> unit
(** Feed tagged tuples of the detector's chronicle.  A detector in a
    database's catalog ({!Db.define_temporal}, {!Db.add_detector})
    observes every committed append to its chronicle. *)

val occurrences : t -> occurrence list
(** All fired occurrences, oldest first. *)

val occurrence_count : t -> int
val live_instances : t -> int
(** Partial instances currently tracked across all rules and keys. *)

val dropped_instances : t -> int
val suppressed : t -> int
(** Occurrences swallowed by cooldowns. *)

val chronicle : t -> Chron.t
val max_instances_per_key : t -> int
val rules : t -> rule list

val pp_occurrence : Format.formatter -> occurrence -> unit

(** {2 Snapshots} *)

type rule_dump = {
  rd_rule : rule;
  rd_instances : (Value.t list * (Seqnum.chronon * Pattern.t) list) list;
      (** per key: (started_at, residual) partials *)
  rd_last_fired : (Value.t list * Seqnum.chronon) list;
}

type dump = {
  d_rules : rule_dump list;
  d_occurrences : occurrence list;
  d_dropped : int;
  d_suppressed : int;
}

val dump : t -> dump
val load : t -> dump -> unit
(** Restore rules and partial-instance state into a freshly created
    detector on the same chronicle; raises [Invalid_argument] if the
    detector already has rules. *)
