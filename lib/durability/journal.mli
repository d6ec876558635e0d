(** The write-ahead journal: an append-only storage name holding a
    magic header followed by length-prefixed, CRC-32-checksummed
    records, one per transaction event, written {e before} the
    corresponding state mutation.

    On-disk format (all integers big-endian):
    {v
    "CHRONJNL2\n"                                   10-byte magic
    [u32 payload length][u32 CRC-32 of payload][payload]   repeated
    v}
    The journal frames and checksums bytes; it does not look inside
    them.  The durability layer stores one {!Relational.Codec}-encoded
    {!Db.txn_event} per payload ({!Durable.put_event}).  The digit in
    the magic is the format version: a segment of another version
    (version 1 held S-expression text) is refused as damaged, naming
    the version it found.

    A {e torn} final record (the process died mid-append) is expected
    and tolerated: readers report it and writers cut it off.  A record
    whose checksum does not match its bytes is {e corruption}, reported
    as {!Journal_corrupt} — recovery must not silently skip it, because
    every later record depends on the state it describes.

    {b Segments.}  A journal may be bounded ([segment_bytes]): when an
    append would push the active segment past the bound, the active
    name is {e sealed} — synced, renamed to [name.seq] — and a fresh
    active segment starts under the bare [name].  The logical record
    sequence is the concatenation of sealed segments in [seq] order
    followed by the active segment; corruption inside one segment is
    thereby isolated — every earlier segment still verifies on its own
    checksums.  An unbounded journal (the default) rotates only when
    the durability layer seals it at a checkpoint. *)

exception Journal_corrupt of { record : int; reason : string }
(** [record] is the zero-based index of the offending record. *)

type sync_policy =
  | Sync_never  (** leave flushing to the OS (fastest, weakest) *)
  | Sync_every of int  (** [fsync] once per [n] appended records *)
  | Sync_always  (** [fsync] after every record (group-commit of 1) *)

val sync_policy_of_string : string -> (sync_policy, string) result
val sync_policy_to_string : sync_policy -> string

(** {2 Reading} *)

type damage = { index : int; offset : int; reason : string }
(** Where a scan stopped believing the bytes: the zero-based index of
    the first bad record, its byte offset within the segment, and a
    human-readable reason. *)

type ended =
  | Complete  (** every byte accounted for *)
  | Torn of int
      (** truncated mid-record (or mid-magic); the offset is the end
          of the complete prefix *)
  | Damaged of damage
      (** checksum mismatch, or a foreign magic or format version *)

val scan : string -> (string * int) list * ended
(** Split raw segment contents into the maximal well-formed prefix —
    each record's payload paired with its byte offset — plus how the
    scan ended.
    Total: never raises, whatever the bytes.  This is the one reader:
    {!open_}, recovery, scrub and salvage all go through it. *)

(** {2 Segments} *)

val segment_name : string -> int -> string
(** [segment_name name seq] = ["<name>.<seq>"] — the storage name a
    sealed segment of journal [name] lives under. *)

val segments : Storage.t -> string -> (int * string) list
(** Sealed segments of a journal, [(seq, storage-name)] sorted by
    [seq], discovered purely by naming convention over
    [Storage.list] (no manifest to disagree with the files).  Names
    with non-numeric suffixes — [checkpoint.tmp], quarantine sidecars
    — never match. *)

(** {2 Writing} *)

type t

val open_ :
  ?sync:sync_policy -> ?segment_bytes:int -> ?seq:int -> Storage.t -> string -> t
(** Open for appending, creating the name (with its magic header) if
    absent.  An existing journal is scanned to rebuild record
    boundaries; a torn tail is cut off.  Raises {!Journal_corrupt} on a
    checksum mismatch, or a foreign magic or format version.  Default policy: {!Sync_always}.

    [segment_bytes] bounds the active segment: an append that would
    push past the bound first {!seal}s (default: unbounded — never
    rotates).  [seq] is the sequence number the active segment will
    seal to (default [0]); the durability layer passes one past the
    highest existing sealed segment, and never less than the
    [first_segment] of the checkpoint it loaded. *)

val seal : t -> unit
(** Sync, rename the active segment to {!segment_name}[ name seq],
    and start a fresh active segment ([seq] increments).  No-op on an
    empty journal.  The rename is the commit point: recovery reads
    pre- and post-rename layouts identically. *)

val active_seq : t -> int
(** The sequence number the active segment will seal to. *)

val append : t -> string -> unit
(** Frame, checksum and append one record in a single storage append
    (so a torn write tears within this record), then sync per policy;
    rotates first if the append would pass [segment_bytes].  Bumps
    [Stats.Journal_append] and adds the framed size to
    [Stats.Journal_bytes]. *)

val truncate_last : t -> unit
(** Erase the most recently appended record — the abort path: the
    write-ahead record of a batch whose maintenance failed must not be
    replayed.  Raises [Invalid_argument] if the journal is empty. *)

val records : t -> int
(** Complete records currently in the journal. *)

val byte_size : t -> int
