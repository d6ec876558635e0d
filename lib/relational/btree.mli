(** In-memory B+-trees.

    The ordered index behind the paper's IM-log(R) and Theorem 4.4
    O(log |V|) bounds.  Keys live in the leaves, which are chained for
    range scans; internal nodes hold separator keys.  Every node visited
    during a descent bumps [Stats.Index_node_visit], and each top-level
    lookup bumps [Stats.Index_probe] — benchmarks read these to verify
    logarithmic behaviour directly.

    Deletion removes the entry from its leaf without rebalancing (leaves
    may underflow); lookups and scans stay correct and the height never
    grows from deletes, which is sufficient for this workload
    (chronicle systems are overwhelmingly insert-heavy). *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (K : ORDERED) : sig
  type 'v t

  val create : ?degree:int -> unit -> 'v t
  (** [degree] = max children per internal node (default 32, min 4). *)

  val length : 'v t -> int
  val is_empty : 'v t -> bool
  val height : 'v t -> int

  val find : 'v t -> K.t -> 'v option
  val mem : 'v t -> K.t -> bool

  val insert : 'v t -> K.t -> 'v -> 'v option
  (** Insert or replace; returns the previous binding if any. *)

  val remove : 'v t -> K.t -> 'v option
  (** Remove; returns the removed binding if any. *)

  val update : 'v t -> K.t -> ('v option -> 'v option) -> unit
  (** [update t k f] rebinds [k] to [f (find t k)]; [f] returning [None]
      removes the binding. *)

  val min_binding : 'v t -> (K.t * 'v) option
  val max_binding : 'v t -> (K.t * 'v) option

  val iter : (K.t -> 'v -> unit) -> 'v t -> unit
  (** In ascending key order. *)

  val fold : (K.t -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc

  val iter_range : ?lo:K.t -> ?hi:K.t -> (K.t -> 'v -> unit) -> 'v t -> unit
  (** Keys [k] with [lo <= k <= hi] in ascending order (bounds optional
      and inclusive). *)

  val to_list : 'v t -> (K.t * 'v) list

  val check_invariants : 'v t -> unit
  (** Raises [Failure] if ordering, separator, or leaf-chain invariants
      are violated (test hook). *)
end
