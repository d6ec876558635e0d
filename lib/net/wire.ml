open Relational

let max_frame = 16 * 1024 * 1024

let frame payload =
  let buf = Buffer.create (String.length payload + 4) in
  Codec.put_uvarint buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let split ?(max_frame = max_frame) data ~pos =
  let len = String.length data in
  (* decode the length prefix by hand: a truncated varint here means
     the bytes have not arrived yet, not malformed input *)
  let acc = ref 0 and shift = ref 0 and p = ref pos in
  let header = ref None in
  while !header = None && !p < len do
    if !shift > 56 then Codec.fail "frame length varint longer than 9 bytes";
    let b = Char.code data.[!p] in
    incr p;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then header := Some !acc
  done;
  match !header with
  | None -> `Need_more
  | Some n ->
      if n < 0 || n > max_frame then
        Codec.fail "frame length %d out of range (max %d)" n max_frame;
      if len - !p < n then `Need_more
      else `Frame (String.sub data !p n, !p + n)
