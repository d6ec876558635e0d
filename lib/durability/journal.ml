open Relational

exception Journal_corrupt of { record : int; reason : string }

type sync_policy = Sync_never | Sync_every of int | Sync_always

let sync_policy_of_string = function
  | "never" -> Ok Sync_never
  | "always" -> Ok Sync_always
  | s -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "every" ->
          (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some n when n > 0 -> Ok (Sync_every n)
          | _ -> Error (Printf.sprintf "bad sync policy %S" s))
      | _ ->
          Error
            (Printf.sprintf
               "bad sync policy %S (expected never, always or every:N)" s))

let sync_policy_to_string = function
  | Sync_never -> "never"
  | Sync_always -> "always"
  | Sync_every n -> Printf.sprintf "every:%d" n

let tag = "CHRONJNL"
let version = 2
let magic = Codec.magic ~tag ~version

let corrupt record fmt =
  Printf.ksprintf (fun reason -> raise (Journal_corrupt { record; reason })) fmt

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let get_be32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

let frame payload =
  String.concat ""
    [ be32 (String.length payload); be32 (Crc32.string payload); payload ]

type damage = { index : int; offset : int; reason : string }
type ended = Complete | Torn of int | Damaged of damage

(* Whether a CRC-valid record with a non-empty payload starts at some
   offset in [from, len).  (Eight zero bytes frame an empty payload
   with a matching CRC, so empty ones do not count.) *)
let rec valid_frame_from contents ~len from =
  from + 9 <= len
  &&
  let plen = get_be32 contents from in
  (plen > 0 && plen <= len - from - 8
   && Crc32.sub contents ~pos:(from + 8) ~len:plen = get_be32 contents (from + 4))
  || valid_frame_from contents ~len (from + 1)

(* Split [contents] into the maximal well-formed prefix — (payload,
   start-offset) pairs in journal order — plus how the scan ended.
   Total: damage is reported in the [ended] value, never raised, so
   scrub and salvage can inventory a broken segment without
   exceptions.  Payloads are opaque here: decoding them is the
   caller's business.  A declared length running past the end is a
   torn final record only when no CRC-valid record follows it; one
   that does proves the length field itself is damaged. *)
let scan contents =
  let len = String.length contents in
  let mlen = String.length magic in
  if len < mlen && String.sub magic 0 len = contents then
    (* magic itself torn: an empty journal that died during creation *)
    ([], Torn 0)
  else
    match Codec.check_magic ~tag ~version contents with
    | Error reason -> ([], Damaged { index = 0; offset = 0; reason })
    | Ok _ ->
        let records = ref [] in
        let idx = ref 0 in
        let pos = ref mlen in
        let ended = ref Complete in
        let stop e = ended := e; raise Exit in
        (try
           while !pos < len do
             let o = !pos in
             if len - o < 8 then stop (Torn o);
             let plen = get_be32 contents o in
             let crc = get_be32 contents (o + 4) in
             if o + 8 + plen > len then
               stop
                 (if valid_frame_from contents ~len (o + 1) then
                    Damaged
                      { index = !idx; offset = o;
                        reason = "record length runs past end of segment" }
                  else Torn o);
             if Crc32.sub contents ~pos:(o + 8) ~len:plen <> crc then
               stop (Damaged { index = !idx; offset = o; reason = "checksum mismatch" });
             records := (String.sub contents (o + 8) plen, o) :: !records;
             incr idx;
             pos := o + 8 + plen
           done
         with Exit -> ());
        (List.rev !records, !ended)

let read (storage : Storage.t) name =
  match storage.Storage.read name with
  | None -> ([], `Clean)
  | Some contents -> (
      match scan contents with
      | records, Complete -> (List.map fst records, `Clean)
      | records, Torn _ -> (List.map fst records, `Torn)
      | _, Damaged { index; reason; _ } -> corrupt index "%s" reason)

(* ---- segment naming ---- *)

let segment_name name seq = Printf.sprintf "%s.%d" name seq

(* Sealed segments of [name], (seq, storage-name) sorted by seq.
   Discovery is purely by naming convention over [Storage.list] — no
   manifest, so a crash can never leave the manifest and the files
   disagreeing.  Non-numeric suffixes ([checkpoint.tmp],
   [journal.quarantine]) never match. *)
let segments (storage : Storage.t) name =
  let prefix = name ^ "." in
  let plen = String.length prefix in
  storage.Storage.list ()
  |> List.filter_map (fun n ->
         if String.length n > plen && String.sub n 0 plen = prefix then
           match int_of_string_opt (String.sub n plen (String.length n - plen)) with
           | Some seq when seq >= 0 -> Some (seq, n)
           | _ -> None
         else None)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

type t = {
  storage : Storage.t;
  name : string;
  sync : sync_policy;
  segment_bytes : int option; (* rotate before an append would pass this *)
  mutable seq : int; (* storage name the active segment seals to *)
  mutable count : int;
  mutable size : int; (* bytes of magic + complete records *)
  mutable offsets : int list; (* record start offsets, most recent first *)
  mutable unsynced : int;
}

let maybe_sync t =
  match t.sync with
  | Sync_never -> ()
  | Sync_always -> t.storage.Storage.sync t.name
  | Sync_every n ->
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= n then begin
        t.storage.Storage.sync t.name;
        t.unsynced <- 0
      end

let open_ ?(sync = Sync_always) ?segment_bytes ?(seq = 0) (storage : Storage.t)
    name =
  (match segment_bytes with
  | Some n when n <= String.length magic ->
      invalid_arg "Journal.open_: segment_bytes smaller than the magic header"
  | _ -> ());
  match storage.Storage.read name with
  | None ->
      storage.Storage.append name magic;
      (match sync with Sync_never -> () | _ -> storage.Storage.sync name);
      {
        storage;
        name;
        sync;
        segment_bytes;
        seq;
        count = 0;
        size = String.length magic;
        offsets = [];
        unsynced = 0;
      }
  | Some contents ->
      let records, end_, torn =
        match scan contents with
        | records, Complete -> (records, String.length contents, false)
        | records, Torn e -> (records, e, true)
        | _, Damaged { index; reason; _ } -> corrupt index "%s" reason
      in
      if torn then storage.Storage.truncate name end_;
      if end_ = 0 then begin
        (* torn magic: start over *)
        storage.Storage.append name magic;
        (match sync with Sync_never -> () | _ -> storage.Storage.sync name)
      end;
      {
        storage;
        name;
        sync;
        segment_bytes;
        seq;
        count = List.length records;
        size = (if end_ = 0 then String.length magic else end_);
        offsets = List.rev_map snd records;
        unsynced = 0;
      }

(* Seal the active segment: flush it, rename it to [name.seq], and
   start a fresh active segment under the bare [name].  The rename is
   the commit point — a crash before it leaves one (longer) active
   segment, a crash after it leaves a sealed segment plus a missing or
   fresh active one; recovery reads both layouts identically because
   record order is (segments by seq) ++ active.  No-op on an empty
   journal, so sealing never manufactures record-free segments. *)
let seal t =
  if t.count > 0 then begin
    (match t.sync with Sync_never -> () | _ -> t.storage.Storage.sync t.name);
    t.storage.Storage.rename t.name (segment_name t.name t.seq);
    t.seq <- t.seq + 1;
    t.storage.Storage.write t.name magic;
    (match t.sync with Sync_never -> () | _ -> t.storage.Storage.sync t.name);
    t.count <- 0;
    t.size <- String.length magic;
    t.offsets <- [];
    t.unsynced <- 0
  end

let active_seq t = t.seq

let append t payload =
  let framed = frame payload in
  (match t.segment_bytes with
  | Some limit when t.count > 0 && t.size + String.length framed > limit ->
      seal t
  | _ -> ());
  t.storage.Storage.append t.name framed;
  t.offsets <- t.size :: t.offsets;
  t.size <- t.size + String.length framed;
  t.count <- t.count + 1;
  Stats.incr Stats.Journal_append;
  Stats.add Stats.Journal_bytes (String.length framed);
  maybe_sync t

let truncate_last t =
  match t.offsets with
  | [] -> invalid_arg "Journal.truncate_last: journal is empty"
  | off :: rest ->
      t.storage.Storage.truncate t.name off;
      t.offsets <- rest;
      t.size <- off;
      t.count <- t.count - 1

let reset t =
  t.storage.Storage.write t.name magic;
  (match t.sync with Sync_never -> () | _ -> t.storage.Storage.sync t.name);
  t.count <- 0;
  t.size <- String.length magic;
  t.offsets <- [];
  t.unsynced <- 0

let records t = t.count
let byte_size t = t.size
