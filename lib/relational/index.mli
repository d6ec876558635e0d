(** Secondary indexes over relations: composite-key maps from attribute
    values to row ids.

    Two families, matching the two index cost models of the paper's
    complexity analysis:
    - [Hash]: expected O(1) probes (what SCA₁'s IM-Constant tier uses);
    - [Ordered]: a B+-tree with O(log n) probes and range scans (the
      IM-log(R) tier and Theorem 4.4's O(log |V|) group localization). *)

type kind = Hash | Ordered

type t

val create : kind -> attrs:string list -> t
val kind : t -> kind
val attrs : t -> string list

val add : t -> Value.t list -> int -> unit
(** Bind a key to one more row id (multi-map).  Per-key row lists are
    kept sorted ascending — O(1) in the append-only common case where
    the new row id exceeds every stored one — so probes answer in the
    relation's scan order. *)

val remove : t -> Value.t list -> int -> unit
(** Remove one binding of the key to this row id (no-op if absent). *)

val find : t -> Value.t list -> int list
(** Row ids bound to the key, ascending (bumps [Stats.Index_probe]). *)

val find_range : t -> lo:Value.t list option -> hi:Value.t list option -> int list
(** Ordered indexes only; raises [Invalid_argument] on hash indexes. *)

val cardinality : t -> int
(** Number of distinct keys. *)
