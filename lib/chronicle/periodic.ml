open Relational

type slot = { interval : Interval.t; view : View.t }

type t = {
  def : Sca.t;
  calendar : Calendar.t;
  group : Group.t;
  index : Index.kind option;
  expire_after : int option;
  active : (int, slot) Hashtbl.t;
  finalized : (int, slot) Hashtbl.t;
  mutable opened : int;
  mutable expired : int;
}

let create ?index ?expire_after ~def ~calendar () =
  let group = Ca.group_of (Sca.body def) in
  {
    def;
    calendar;
    group;
    index;
    expire_after;
    active = Hashtbl.create 8;
    finalized = Hashtbl.create 32;
    opened = 0;
    expired = 0;
  }

let def t = t.def
let calendar t = t.calendar

let open_views t chronon =
  List.iter
    (fun i ->
      if not (Hashtbl.mem t.active i || Hashtbl.mem t.finalized i) then begin
        match Calendar.interval t.calendar i with
        | None -> ()
        | Some interval ->
            let view = View.create ?index:t.index t.def in
            Hashtbl.add t.active i { interval; view };
            t.opened <- t.opened + 1
      end)
    (Calendar.covering t.calendar chronon)

let close_views t chronon =
  let closing = ref [] in
  Hashtbl.iter
    (fun i slot -> if Interval.before slot.interval chronon then closing := (i, slot) :: !closing)
    t.active;
  List.iter
    (fun (i, slot) ->
      Hashtbl.remove t.active i;
      Hashtbl.add t.finalized i slot)
    !closing

let expire_views t chronon =
  match t.expire_after with
  | None -> ()
  | Some keep ->
      let victims = ref [] in
      Hashtbl.iter
        (fun i slot ->
          if slot.interval.Interval.stop + keep <= chronon then
            victims := i :: !victims)
        t.finalized;
      List.iter
        (fun i ->
          Hashtbl.remove t.finalized i;
          t.expired <- t.expired + 1)
        !victims

let note_append t delta =
  let chronon = Group.now t.group in
  close_views t chronon;
  expire_views t chronon;
  open_views t chronon;
  if delta <> [] then
    let z = Delta.of_zset { Delta.plus = delta; minus = [] } in
    Hashtbl.iter (fun _ slot -> View.apply slot.view z) t.active

let get t i =
  match Hashtbl.find_opt t.active i with
  | Some slot -> Some slot.view
  | None -> Option.map (fun s -> s.view) (Hashtbl.find_opt t.finalized i)

let sorted_bindings tbl =
  Hashtbl.fold (fun i slot acc -> (i, slot.view) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let active t = sorted_bindings t.active
let finalized t = sorted_bindings t.finalized

let current t =
  let chronon = Group.now t.group in
  match Calendar.first_covering t.calendar chronon with
  | None -> None
  | Some i -> (
      match Hashtbl.find_opt t.active i with
      | Some slot -> Some (i, slot.view)
      | None -> None)

let live_views t = Hashtbl.length t.active + Hashtbl.length t.finalized
let opened_total t = t.opened
let expired_total t = t.expired

let expire_after t = t.expire_after
let index_kind t = t.index

type slot_dump = {
  sd_index : int;
  sd_interval : Interval.t;
  sd_active : bool;
  sd_contents : View.dump;
}

type dump = {
  d_slots : slot_dump list;
  d_opened : int;
  d_expired : int;
}

let dump t =
  let slots_of active tbl =
    Hashtbl.fold
      (fun i slot acc ->
        {
          sd_index = i;
          sd_interval = slot.interval;
          sd_active = active;
          sd_contents = View.dump slot.view;
        }
        :: acc)
      tbl []
  in
  {
    d_slots =
      List.sort
        (fun a b -> Int.compare a.sd_index b.sd_index)
        (slots_of true t.active @ slots_of false t.finalized);
    d_opened = t.opened;
    d_expired = t.expired;
  }

let load t { d_slots; d_opened; d_expired } =
  if live_views t > 0 || t.opened > 0 then
    invalid_arg "Periodic.load: family already has state";
  List.iter
    (fun sd ->
      let view = View.create ?index:t.index t.def in
      View.load view sd.sd_contents;
      let slot = { interval = sd.sd_interval; view } in
      if sd.sd_active then Hashtbl.add t.active sd.sd_index slot
      else Hashtbl.add t.finalized sd.sd_index slot)
    d_slots;
  t.opened <- d_opened;
  t.expired <- d_expired
