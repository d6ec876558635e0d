open Relational

type checkpoint_status = {
  ck_name : string;
  generation : int option;
  ck_bytes : int;
  ck_damage : string option;
}

type segment_status = {
  seg_name : string;
  sealed : bool;
  seg_bytes : int;
  records : int;
  torn_tail : bool;
  seg_damage : Journal.damage option;
}

type t = {
  checkpoints : checkpoint_status list;
  segments : segment_status list;
}

let verify_checkpoint storage ((generation, ck_name) as candidate) =
  match storage.Storage.read ck_name with
  | None ->
      { ck_name; generation; ck_bytes = 0; ck_damage = Some "vanished mid-scrub" }
  | Some contents ->
      let ck_bytes = String.length contents in
      let ck_damage =
        match Durable.verify_checkpoint candidate contents with
        | Ok _ -> None
        | Error reason -> Some reason
      in
      { ck_name; generation; ck_bytes; ck_damage }

let verify_segment storage ~sealed seg_name =
  let seg =
    Durable.read_segment storage ~sealed seg_name ~init:0 ~add:(fun n _ _ ->
        n + 1)
  in
  Stats.add Stats.Scrub_record seg.Durable.records;
  {
    seg_name;
    sealed;
    seg_bytes = String.length seg.Durable.bytes;
    records = seg.Durable.records;
    torn_tail = seg.Durable.ended = Durable.Torn_tail;
    seg_damage =
      (match seg.Durable.ended with Durable.Damaged d -> Some d | _ -> None);
  }

let run storage =
  let listed = Durable.layout storage in
  {
    checkpoints = List.map (verify_checkpoint storage) listed.Durable.checkpoints;
    segments =
      List.map
        (fun (_, name) -> verify_segment storage ~sealed:true name)
        listed.Durable.sealed
      @
      if listed.Durable.active then
        [ verify_segment storage ~sealed:false Durable.journal_file ]
      else [];
  }

let clean t =
  List.for_all (fun c -> c.ck_damage = None) t.checkpoints
  && List.for_all (fun s -> s.seg_damage = None) t.segments

let pp ppf t =
  List.iter
    (fun c ->
      match c.ck_damage with
      | None ->
          Format.fprintf ppf "%s: ok%s@." c.ck_name
            (Option.fold ~none:""
               ~some:(Printf.sprintf " (generation %d)")
               c.generation)
      | Some reason -> Format.fprintf ppf "%s: DAMAGED: %s@." c.ck_name reason)
    t.checkpoints;
  List.iter
    (fun s ->
      match s.seg_damage with
      | None ->
          Format.fprintf ppf "%s: %d record(s), ok%s@." s.seg_name s.records
            (if s.torn_tail then ", torn tail" else "")
      | Some { Journal.index; offset; reason } ->
          Format.fprintf ppf "%s: %d record(s), DAMAGED at record %d (offset %d): %s@."
            s.seg_name s.records index offset reason)
    t.segments;
  if t.checkpoints = [] && t.segments = [] then
    Format.fprintf ppf "no durable state@."
