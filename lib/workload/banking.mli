open Relational

(** Consumer-banking workload (§1: the ATM dollar_balance summary field
    that must be current before the next withdrawal — the
    Chemical-Bank example). *)

val account_schema : Schema.t
(** (acct:int, name:string, branch:string) — key acct. *)

val txn_schema : Schema.t
(** User schema of the transactions chronicle:
    (acct:int, kind:string ["deposit"|"withdrawal"], amount:float).
    Withdrawals carry negative amounts so that SUM(amount) is the
    balance. *)

val accounts : Rng.t -> n:int -> Tuple.t list
val txn : Rng.t -> Zipf.t -> Tuple.t

val txn_stream : Rng.t -> Zipf.t -> n:int -> Tuple.t list
(** [n] transactions whose account keys follow the Zipf law ([s = 0]
    degenerates to uniform) — the key stream the key-join oracle
    property appends one by one. *)
