open Relational

(** Identifying affected persistent views (§5.2).

    When many views are maintained over one chronicle, each append
    should touch only the views it can actually change.  The registry
    keeps, per view and per base chronicle it depends on, a sound
    {e guard predicate}: a necessary condition on an appended tuple for
    the view's delta to be non-empty.  Guards are extracted statically
    from selection chains over the base chronicle (the analogue of
    "queries independent of updates" [LS93]); views whose body shape
    defeats extraction get the trivial guard and are always maintained
    (sound, merely less economical). *)

type t

val create : unit -> t

val register : t -> View.t -> unit
(** Raises [Invalid_argument] if a view with the same name is already
    registered.  Warms the view's Δ-plan cache ({!View.plan}) so the
    transaction path never compiles: registration pays the one
    [Stats.Plan_compile]; redefinition (unregister + register of a new
    view) pays it again.  The plan shares key-join stages with the
    other registered views' plans through {!stages}. *)

val unregister : t -> string -> unit
(** Also releases the view's claims on shared key-join stages. *)

val stages : t -> Delta.stages
(** The key-join stages the registered views' plans share. *)

val find : t -> string -> View.t option
(** O(1) expected (name-indexed); many-view catalogs stay cheap. *)

val views : t -> View.t list
(** In registration order. *)

val dependents : t -> Chron.t -> View.t list
(** All registered views whose body mentions the chronicle, in
    registration order. *)

val affected : t -> Chron.t -> Tuple.t list -> View.t list
(** Views that may change given the tagged tuples appended to the
    chronicle: dependents whose guard passes at least one tuple.

    The output order is {e deterministic and stable}: registration
    order, independent of any hash-table iteration order.  The
    transaction path folds the views in this order, so the view whose
    failure aborts a batch is reproducible run to run. *)

(** {2 Economics counters} *)

val checked : t -> int
(** Guard evaluations performed. *)

val skipped : t -> int
(** View maintenances avoided by a failing guard. *)

val index_advice : t -> (string * string list) list
(** Per registered view, the attribute list its persistent store should
    be indexed on (the view's logical key) — the "what indices should be
    constructed" question of §5.2. *)
