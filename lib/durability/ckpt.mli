(** Checkpoint container format.

    Every checkpoint file is one frame: a CRC'd header that lets
    recovery and scrub {e verify} a checkpoint before trusting it, then
    the {!Chronicle_core.Snapshot.save} payload.  The durability layer
    writes every checkpoint as the next generation
    ["checkpoint.<generation>"], over a freshly sealed journal, and
    falls back, generation by generation, when verification fails; the
    header records [first_segment], the first journal segment the
    generation does {e not} cover, so an older generation knows to
    replay a correspondingly longer journal suffix.

    On-disk format (integers big-endian):
    {v
    "CHRONCKP3\n"                        10-byte magic (format version 3)
    [u32 generation][u32 first_segment]
    [u32 payload length][u32 payload CRC-32]
    [u32 CRC-32 of the 26 bytes above]
    payload                              the Snapshot.save bytes
    v}
    A checkpoint of another format version — version 2 did not carry
    the temporal readers, version 1 was a bare S-expression file — fails
    {!decode} with a reason naming the version; a file of another
    format ("CHRONSES3", the session snapshot of earlier builds) fails
    naming that format.  A [--save] file is this frame too
    ({!Durable.save_snapshot}). *)

val file : string
(** ["checkpoint"] — the base of the generation names.  A file under the
    bare name is the layout of an earlier build, which recovery
    refuses. *)

val tmp_file : string  (** ["checkpoint.tmp"] *)

val gen_name : int -> string
(** [gen_name g] = ["checkpoint.<g>"]. *)

type header = { generation : int; first_segment : int }

val encode : generation:int -> first_segment:int -> string -> string
(** Wrap a snapshot payload in a checkpoint header. *)

val decode : string -> (header * string, string) result
(** Verify and strip the header; [Error reason] on a truncated or
    foreign header, another format version, a header-CRC mismatch, a
    payload-length mismatch, or a payload-CRC mismatch.  Never
    raises. *)

val generations : Storage.t -> (int * string) list
(** Existing generations, [(generation, storage-name)] ascending —
    discovered by naming convention over [Storage.list], exactly like
    journal segments (so ["checkpoint.tmp"] never matches). *)
