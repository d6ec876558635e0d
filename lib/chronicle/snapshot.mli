open Relational

(** Database snapshots.

    A chronicle is an unbounded stream that the system deliberately
    does {e not} store — so after a restart the persistent views cannot
    be recomputed by replay.  Their materialized state (plus the
    catalog, group watermarks/clocks, relation contents, and whatever
    chronicle window the retention policies kept) therefore {e is} the
    database, and this module serializes exactly that to a {!Codec}
    byte string and back — the temporal readers too: periodic-view
    families with their interval views, windowed views with their
    cyclic buffers, and event detectors with their partial instances.
    The document carries no magic or version of its own: it is always
    embedded in a versioned container, a checkpoint frame
    ({!Chronicle_durability.Ckpt}).

    Not captured (documented limits):
    - the [Versioned] forward log and pending future-effective updates
      ([save] refuses while updates are pending, since their update
      functions are code);
    - event-rule listeners ({!Detector.on_match}: re-register after
      load). *)

exception Snapshot_error of string

val save : Db.t -> string
(** Serialize the database.  Raises {!Snapshot_error} if a relation has
    pending future-effective updates, or a registered view definition
    is not expressible in the snapshot grammar. *)

val load : string -> Db.t
(** Rebuild a database from {!save} output.  Raises {!Snapshot_error}
    on any input that does not decode or does not load — the reason
    carries the byte offset where decoding stopped. *)

val decode_with : string -> (Codec.reader -> 'a) -> string -> 'a
(** [decode_with what get data] decodes a whole payload, raising
    {!Snapshot_error} — naming [what] — on a {!Codec.Decode_error}
    (with its byte offset) or on any exception the decoded content
    provokes while it is applied. *)

(** {2 Building blocks} (exposed for the journal and tests) *)

val put_schema : Buffer.t -> Schema.t -> unit
val get_schema : Codec.reader -> Schema.t
val put_tuple : Buffer.t -> Tuple.t -> unit
val get_tuple : Codec.reader -> Tuple.t
val put_key : Buffer.t -> Value.t list -> unit
val get_key : Codec.reader -> Value.t list
val put_attrs : Buffer.t -> string list -> unit
val get_attrs : Codec.reader -> string list
val put_retention : Buffer.t -> Chron.retention -> unit
val get_retention : Codec.reader -> Chron.retention
val put_index_kind : Buffer.t -> Index.kind -> unit
val get_index_kind : Codec.reader -> Index.kind
val put_predicate : Buffer.t -> Predicate.t -> unit
val get_predicate : Codec.reader -> Predicate.t

val put_ca : Buffer.t -> Ca.t -> unit
(** Chronicles and relations are referenced by name. *)

val get_ca :
  chronicle:(string -> Chron.t) ->
  relation:(string -> Relation.t) ->
  Codec.reader ->
  Ca.t

val put_sca : Buffer.t -> Sca.t -> unit
val get_sca :
  chronicle:(string -> Chron.t) ->
  relation:(string -> Relation.t) ->
  Codec.reader ->
  Sca.t

val put_temporal : Buffer.t -> Db.temporal -> unit
(** A temporal definition as the journal carries it: a tag, then the
    entry in its snapshot section's encoding (a rule: the chronicle
    name, then the rule). *)

val get_temporal :
  chronicle:(string -> Chron.t) ->
  relation:(string -> Relation.t) ->
  Codec.reader ->
  Db.temporal
