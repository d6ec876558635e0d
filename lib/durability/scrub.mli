(** Read-only storage verification.

    [run] verifies every checkpoint ({!Ckpt.decode}: header and
    payload CRC) and every journal record — sealed segments and the
    active one, each read by the segment reader recovery uses
    ({!Durable.read_segment}: CRC, then the record decoder) — and
    returns a typed
    damage inventory: per-segment record counts and the first bad
    offset where verification stopped believing the bytes.  Nothing is
    modified, ever: scrub is safe against live storage and is the
    "should I salvage?" probe the CLI exposes as [chronicle-cli
    scrub].

    Each verified journal record bumps [Stats.Scrub_record]. *)

type checkpoint_status = {
  ck_name : string;
  generation : int option;
      (** [None] — a bare ["checkpoint"] of an earlier build, which is
          always damaged *)
  ck_bytes : int;
  ck_damage : string option;  (** [None] = verified *)
}

type segment_status = {
  seg_name : string;
  sealed : bool;
  seg_bytes : int;
  records : int;  (** complete records that verify and decode *)
  torn_tail : bool;
      (** active segment died mid-append — expected, tolerated, not
          counted as damage *)
  seg_damage : Journal.damage option;
      (** first bad record: checksum mismatch, a payload that does
          not decode, foreign magic or format version, or a torn
          {e sealed} segment *)
}

type t = {
  checkpoints : checkpoint_status list;
  segments : segment_status list;
}

val run : Storage.t -> t
(** Inventory everything {!Durable.layout} lists: every checkpoint
    candidate (a bare one first, then generations ascending) and every
    journal segment (sealed ascending, active last).  Read-only. *)

val clean : t -> bool
(** No damage anywhere.  A torn active tail is clean (recovery repairs
    it); a torn sealed segment is not. *)

val pp : Format.formatter -> t -> unit
(** One line per checkpoint and segment, deterministic — the
    [chronicle-cli scrub] output. *)
