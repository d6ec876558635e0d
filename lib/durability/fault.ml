exception Crash of string
exception Sync_failed of string

type t = {
  armed : (string, int ref) Hashtbl.t; (* remaining hits before firing *)
  counts : (string, int) Hashtbl.t;
  mutable torn : (int ref * int) option; (* appends before firing, bytes kept *)
  mutable sync_fail : (int ref * int ref) option;
      (* (healthy syncs left, failures left): transient — the storage
         raises [Sync_failed] instead of crashing, modelling an I/O
         error the durability layer may retry through *)
  mutable dead : bool;
}

let create () =
  { armed = Hashtbl.create 8; counts = Hashtbl.create 8; torn = None;
    sync_fail = None; dead = false }

let arm t ?(after = 0) name =
  if after < 0 then invalid_arg "Fault.arm: negative countdown";
  Hashtbl.replace t.armed name (ref after)

let disarm t name = Hashtbl.remove t.armed name

let disarm_all t =
  Hashtbl.reset t.armed;
  t.torn <- None;
  t.sync_fail <- None

let hit_count t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)

let hit t name =
  Hashtbl.replace t.counts name (hit_count t name + 1);
  if not t.dead then
    match Hashtbl.find_opt t.armed name with
    | Some remaining when !remaining = 0 ->
        Hashtbl.remove t.armed name;
        t.dead <- true;
        raise (Crash name)
    | Some remaining -> decr remaining
    | None -> ()

let is_dead t = t.dead

let revive t =
  t.dead <- false;
  disarm_all t

let arm_torn_write ?(after = 0) t ~keep =
  if after < 0 || keep < 0 then invalid_arg "Fault.arm_torn_write";
  t.torn <- Some (ref after, keep)

let arm_sync_failures ?(after = 0) t ~fails =
  if after < 0 || fails <= 0 then invalid_arg "Fault.arm_sync_failures";
  t.sync_fail <- Some (ref after, ref fails)

let wrap_storage t (s : Storage.t) =
  {
    s with
    Storage.append =
      (fun name data ->
        match t.torn with
        | Some (remaining, keep) when (not t.dead) && !remaining = 0 ->
            t.torn <- None;
            t.dead <- true;
            s.Storage.append name (String.sub data 0 (min keep (String.length data)));
            raise (Crash "torn-write")
        | Some (remaining, _) when not t.dead ->
            decr remaining;
            s.Storage.append name data
        | _ -> s.Storage.append name data);
    Storage.sync =
      (fun name ->
        match t.sync_fail with
        | Some (healthy, _) when (not t.dead) && !healthy > 0 ->
            decr healthy;
            s.Storage.sync name
        | Some (_, remaining) when not t.dead ->
            decr remaining;
            if !remaining <= 0 then t.sync_fail <- None;
            raise (Sync_failed name)
        | _ -> s.Storage.sync name);
  }

let flip_bit (s : Storage.t) ~name ~byte ~bit =
  if bit < 0 || bit > 7 then invalid_arg "Fault.flip_bit: bit out of range";
  match s.Storage.read name with
  | None -> invalid_arg (Printf.sprintf "Fault.flip_bit: %S is absent" name)
  | Some data ->
      if byte < 0 || byte >= String.length data then
        invalid_arg "Fault.flip_bit: byte offset out of range";
      let b = Bytes.of_string data in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      s.Storage.write name (Bytes.unsafe_to_string b)
