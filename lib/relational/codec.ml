exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* ---- encoding ---- *)

(* LEB128 over the int's 63-bit two's-complement pattern: [lsr] is a
   logical shift, so a negative int drains to 0 after at most 9 rounds
   and round-trips bit-exactly *)
let put_uvarint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* zigzag fold: 0, -1, 1, -2, … ↦ 0, 1, 2, 3, … so small magnitudes of
   either sign encode short *)
let put_int buf n = put_uvarint buf ((n lsl 1) lxor (n asr 62))

let put_string buf s =
  put_uvarint buf (String.length s);
  Buffer.add_string buf s

let put_bool buf b = Buffer.add_char buf (if b then '\x01' else '\x00')
let put_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)

let put_value buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char buf '\x00'
  | Value.Bool b ->
      Buffer.add_char buf '\x01';
      put_bool buf b
  | Value.Int n ->
      Buffer.add_char buf '\x02';
      put_int buf n
  | Value.Float f ->
      Buffer.add_char buf '\x03';
      put_float buf f
  | Value.Str s ->
      Buffer.add_char buf '\x04';
      put_string buf s

let put_list put buf l =
  put_uvarint buf (List.length l);
  List.iter (put buf) l

let put_option put buf = function
  | None -> Buffer.add_char buf '\x00'
  | Some x ->
      Buffer.add_char buf '\x01';
      put buf x

let encode put x =
  let buf = Buffer.create 256 in
  put buf x;
  Buffer.contents buf

(* ---- decoding ---- *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }
let remaining r = String.length r.data - r.pos

let byte r =
  if r.pos >= String.length r.data then fail "truncated field";
  let b = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  b

let uvarint r =
  let acc = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 56 then fail "varint longer than 9 bytes";
    let b = byte r in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
  done;
  !acc

let int_ r =
  let u = uvarint r in
  (u lsr 1) lxor (-(u land 1))

let length r ~max what =
  let n = uvarint r in
  if n < 0 || n > max then fail "%s %d out of range (max %d)" what n max;
  n

let string_ r =
  (* the bound must be what remains AFTER the length varint itself is
     consumed, or a length that counts its own prefix bytes slips
     through to [String.sub] *)
  let n = uvarint r in
  if n < 0 || n > remaining r then
    fail "string length %d out of range (max %d)" n (remaining r);
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let bool_ r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | b -> fail "bad bool byte %#x" b

let float_ r =
  if remaining r < 8 then fail "truncated float";
  let f = Int64.float_of_bits (String.get_int64_be r.data r.pos) in
  r.pos <- r.pos + 8;
  f

let value r =
  match byte r with
  | 0 -> Value.Null
  | 1 -> Value.Bool (bool_ r)
  | 2 -> Value.Int (int_ r)
  | 3 -> Value.Float (float_ r)
  | 4 -> Value.Str (string_ r)
  | t -> fail "unknown value tag %#x" t

(* every element encoding spends at least one byte, so a count above
   the bytes left is malformed — and never allocates.  Strictly left
   to right: the reader is stateful *)
let list get r =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (get r :: acc) in
  go (length r ~max:(remaining r) "list length") []

let option get r =
  match byte r with
  | 0 -> None
  | 1 -> Some (get r)
  | b -> fail "bad option byte %#x" b

let expect_end r =
  if remaining r <> 0 then fail "%d byte(s) of trailing garbage" (remaining r)

let decode get data =
  let r = reader data in
  match
    let x = get r in
    expect_end r;
    x
  with
  | x -> Ok x
  | exception Decode_error msg -> Error (Printf.sprintf "%s at byte %d" msg r.pos)

(* ---- file magic ---- *)

let magic ~tag ~version = Printf.sprintf "%s%d\n" tag version

let check_magic ~tag ~version data =
  let m = magic ~tag ~version in
  let n = String.length m and tn = String.length tag in
  let len = String.length data in
  if len >= n && String.sub data 0 n = m then Ok n
  else
    let found =
      if len >= n && String.sub data 0 tn = tag && data.[n - 1] = '\n' then
        Some (String.sub data tn (n - 1 - tn))
      else if len > 0 && data.[0] = '(' then Some "1 (S-expression text)"
      else None
    in
    let upper_alnum c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
    match found with
    | Some v ->
        Error
          (Printf.sprintf
             "format version %s is not supported (this build reads version %d)"
             v version)
    | None
      when len >= n
           && data.[n - 1] = '\n'
           && String.for_all upper_alnum (String.sub data 0 (n - 1)) ->
        Error
          (Printf.sprintf "foreign format %s (expected %s%d)"
             (String.sub data 0 (n - 1)) tag version)
    | None -> Error "bad magic"
