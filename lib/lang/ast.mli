open Relational

(** Surface syntax of the view-definition language ℒ.

    The language covers exactly the fragment that the summarized
    chronicle algebra can classify: single-chronicle bodies with an
    optional key join against one relation, a WHERE clause (top-level
    conjunctions become nested selections; each conjunct must be a
    Definition 4.1 disjunction of comparisons), and a SELECT list that
    is either a pure projection or grouping with incrementally
    computable aggregates. *)

type operand = Attr of string | Lit of Value.t

type comparison = { left : operand; op : Predicate.op; right : operand }

type cond =
  | Cmp of comparison
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type select_item =
  | Col of string  (** plain attribute *)
  | Agg of { func : Aggregate.func; arg : string option; alias : string option }

type join_clause = { rel : string; on : (string * string) list }
      (** [on]: (chronicle attribute, relation attribute) pairs *)

type select = {
  items : select_item list;
  chronicle : string;
  join : join_clause option;
  where : cond option;
  group_by : string list;
}

type retention_spec = Retain_window of int | Retain_full

type column = string * Value.ty

(** Calendar of a periodic view (§5.1): tiling billing periods, sliding
    windows, or a general stride. *)
type calendar_spec = {
  shape : [ `Tiling | `Sliding | `Stride of int ];
  cal_start : int;
  cal_width : int;
}

(** Surface event patterns (§6's event algebra): THEN binds tightest,
    then AND, then OR; REPEAT is sugar for a THEN-chain. *)
type event_pattern =
  | Ev_atom of string option * cond
  | Ev_seq of event_pattern * event_pattern
  | Ev_and of event_pattern * event_pattern
  | Ev_or of event_pattern * event_pattern
  | Ev_repeat of int * event_pattern

(** Ad-hoc query over views and relations (§2.2: "queries that access
    the relations and persistent views can be written in any language"
    — here, unrestricted relational algebra with grouping). *)
type query = {
  q_items : select_item list;
  q_from : string;
  q_join : (string * (string * string) list) option;
  q_where : cond option;
  q_group : string list;
}

type stmt =
  | Create_chronicle of { name : string; columns : column list; retain : retention_spec option }
  | Create_relation of { name : string; columns : column list; key : string list }
  | Define_view of { name : string; select : select }
  | Define_periodic of {
      name : string;
      select : select;
      calendar : calendar_spec;
      expire : int option;
    }
  | Define_windowed of {
      name : string;
      select : select;
      buckets : int;
      bucket_width : int;
    }
  | Append_into of { chronicle : string; rows : Value.t list list }
  | Retract_from of { chronicle : string; rows : Value.t list list }
      (** [RETRACT FROM c VALUES (...), ...]: remove one stored
          occurrence of each row (ℤ-weighted delta, weight [-1]) and
          unwind every persistent view.  Requires [RETAIN FULL]. *)
  | Insert_into of { relation : string; rows : Value.t list list }
  | Load_csv of { target : string; path : string }
  | Define_rule of {
      name : string;
      chronicle : string;
      key : string list;
      within : int option;
      cooldown : int option;
      reset_on_match : bool;
      pattern : event_pattern;
    }
  | Advance_clock of int
  | Query of query
  | Show_view of string
  | Show_classify of string
  | Show_periodic of { name : string; index : int option }
  | Show_windowed of string
  | Show_alerts
  | Show_audit
  | Show_plan of string
  | Show_stats
  | Show_counters
      (** [SHOW COUNTERS]: the engine-wide {!Stats} work counters
          (index probes, tuple reads, …) as rows — the observable the
          differential plan tests assert on. *)
  | Drop_view of string
  | Set_batch of int
      (** [SET BATCH n]: group-commit threshold of the session's
          staging queue — up to [n] appends commit as one journal
          record ([n = 1]: every append commits immediately). *)
  | Flush  (** [FLUSH]: commit everything staged now. *)

val cond_to_predicate : cond -> Predicate.t
val conjuncts : cond -> cond list
(** Split top-level ANDs: [a AND (b OR c) AND d] → [a; b OR c; d]. *)

val pp_stmt : Format.formatter -> stmt -> unit
