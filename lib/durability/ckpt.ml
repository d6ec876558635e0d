(* Checkpoint container: a CRC'd header in front of the snapshot
   payload, so recovery and scrub can verify every checkpoint before
   trusting it and fall back to an older generation.

   On-disk format (all integers big-endian):

     "CHRONCKP3\n"          10-byte magic; the digit is the format
                            version
     u32 generation         monotone per checkpoint
     u32 first_segment      first journal segment NOT covered by this
                            generation (replay starts there)
     u32 payload length
     u32 CRC-32 of payload
     u32 CRC-32 of the 26 header bytes above
     payload                Snapshot.save bytes

   Every checkpoint is a numbered generation ["checkpoint.<g>"] with
   this one frame, written over a freshly sealed journal. *)

open Relational

let file = "checkpoint"
let tmp_file = "checkpoint.tmp"
let tag = "CHRONCKP"
let version = 3
let magic = Codec.magic ~tag ~version
let gen_name g = Printf.sprintf "%s.%d" file g

type header = { generation : int; first_segment : int }

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let get_be32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

(* magic + generation + first_segment + payload length + payload CRC *)
let crced_len = String.length magic + 16
let header_len = crced_len + 4

let encode ~generation ~first_segment payload =
  let crced =
    String.concat ""
      [
        magic;
        be32 generation;
        be32 first_segment;
        be32 (String.length payload);
        be32 (Crc32.string payload);
      ]
  in
  String.concat "" [ crced; be32 (Crc32.string crced); payload ]

let decode contents =
  let len = String.length contents in
  if len < header_len then Error "truncated header"
  else
    match Codec.check_magic ~tag ~version contents with
    | Error reason -> Error reason
    | Ok mlen ->
        let field k = get_be32 contents (mlen + (4 * k)) in
        let plen = field 2 in
        if field 4 <> Crc32.sub contents ~pos:0 ~len:crced_len then
          Error "header checksum mismatch"
        else if len - header_len <> plen then
          Error
            (Printf.sprintf "payload length mismatch (header says %d, found %d)"
               plen (len - header_len))
        else if Crc32.sub contents ~pos:header_len ~len:plen <> field 3 then
          Error "payload checksum mismatch"
        else
          Ok
            ( { generation = field 0; first_segment = field 1 },
              String.sub contents header_len plen )

(* Existing generations, (generation, storage-name) ascending —
   discovered by naming convention, like journal segments. *)
let generations storage = Journal.segments storage file
