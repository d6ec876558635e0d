open Relational

type rule = {
  rule_name : string;
  pattern : Pattern.t;
  key : string list;
  within : int option;
  cooldown : int option;
  reset_on_match : bool;
}

let rule ~name ~pattern ~key ?within ?cooldown ?(reset_on_match = false) () =
  { rule_name = name; pattern; key; within; cooldown; reset_on_match }

type occurrence = {
  rule : string;
  key_values : Value.t list;
  started_at : Seqnum.chronon;
  fired_at : Seqnum.chronon;
  fired_sn : Seqnum.t;
}

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

type instance = { started_at : Seqnum.chronon; residual : Pattern.t }

type compiled_rule = {
  spec : rule;
  key_of : Tuple.t -> Tuple.t;
  instances : instance list ref Key_tbl.t;
  last_fired : Seqnum.chronon Key_tbl.t;
}

type t = {
  chron : Chron.t;
  max_instances : int;
  mutable rules : compiled_rule list;
  mutable listeners : (occurrence -> unit) list;
  fired : occurrence Vec.t;
  mutable dropped : int;
  mutable suppressed : int;
}

let create ?(max_instances_per_key = 64) chron =
  if max_instances_per_key < 1 then
    invalid_arg "Detector.create: max_instances_per_key must be positive";
  {
    chron;
    max_instances = max_instances_per_key;
    rules = [];
    listeners = [];
    fired = Vec.create ();
    dropped = 0;
    suppressed = 0;
  }

let add_rule t spec =
  if List.exists (fun r -> String.equal r.spec.rule_name spec.rule_name) t.rules
  then
    invalid_arg
      (Printf.sprintf "Detector.add_rule: rule %s already exists" spec.rule_name);
  let schema = Chron.schema t.chron in
  List.iter (fun a -> ignore (Schema.pos schema a)) spec.key;
  t.rules <-
    t.rules
    @ [
        {
          spec;
          key_of = Tuple.projector schema spec.key;
          instances = Key_tbl.create 64;
          last_fired = Key_tbl.create 64;
        };
      ]

let on_match t f = t.listeners <- f :: t.listeners

let fire t rule key started_at sn =
  let occ =
    {
      rule = rule.rule_name;
      key_values = key;
      started_at;
      fired_at = Group.now (Chron.group t.chron);
      fired_sn = sn;
    }
  in
  ignore (Vec.push t.fired occ);
  List.iter (fun f -> f occ) (List.rev t.listeners)

let dedup_instances instances =
  let cmp a b =
    let c = Int.compare a.started_at b.started_at in
    if c <> 0 then c else Pattern.compare a.residual b.residual
  in
  let sorted = List.sort cmp instances in
  let rec uniq = function
    | a :: (b :: _ as rest) when cmp a b = 0 -> uniq rest
    | a :: rest -> a :: uniq rest
    | [] -> []
  in
  uniq sorted

let observe_event t sn tuple =
  let schema = Chron.schema t.chron in
  let now = Group.now (Chron.group t.chron) in
  let sat pred = Predicate.eval schema pred tuple in
  List.iter
    (fun rule ->
      let key = Array.to_list (rule.key_of tuple) in
      Stats.incr Stats.Group_lookup;
      let slot =
        match Key_tbl.find_opt rule.instances key with
        | Some slot -> slot
        | None ->
            let slot = ref [] in
            Key_tbl.add rule.instances key slot;
            slot
      in
      let expired inst =
        match rule.spec.within with
        | None -> false
        | Some k -> now > inst.started_at + k
      in
      let live = List.filter (fun i -> not (expired i)) !slot in
      (* a fresh instance may start at this very event *)
      let candidates = { started_at = now; residual = rule.spec.pattern } :: live in
      let completions = ref [] in
      let advanced =
        List.concat_map
          (fun inst ->
            List.filter_map
              (function
                | Pattern.Complete ->
                    completions := inst.started_at :: !completions;
                    None
                | Pattern.Partial p -> Some { inst with residual = p })
              (Pattern.deriv inst.residual sat))
          candidates
      in
      let fired_now =
        match List.rev !completions with
        | [] -> false
        | started_ats ->
            let cooling =
              match rule.spec.cooldown, Key_tbl.find_opt rule.last_fired key with
              | Some k, Some last -> now < last + k
              | (None | Some _), _ -> false
            in
            if cooling then begin
              t.suppressed <- t.suppressed + List.length started_ats;
              false
            end
            else begin
              (* one event can complete several overlapping instances;
                 with reset_on_match only the earliest-started fires *)
              (if rule.spec.reset_on_match then
                 fire t rule.spec key
                   (List.fold_left min (List.hd started_ats) started_ats)
                   sn
               else
                 List.iter (fun started -> fire t rule.spec key started sn) started_ats);
              Key_tbl.replace rule.last_fired key now;
              true
            end
      in
      (* skip semantics: untouched live instances stay; advanced
         partials join them — unless the match resets the key *)
      let next =
        if fired_now && rule.spec.reset_on_match then []
        else dedup_instances (live @ advanced)
      in
      let next =
        let n = List.length next in
        if n > t.max_instances then begin
          t.dropped <- t.dropped + (n - t.max_instances);
          (* keep the newest instances *)
          List.filteri (fun i _ -> i >= n - t.max_instances) next
        end
        else next
      in
      slot := next)
    t.rules

let observe t ~sn tuples = List.iter (observe_event t sn) tuples

let occurrences t = Vec.to_list t.fired
let occurrence_count t = Vec.length t.fired

let live_instances t =
  List.fold_left
    (fun acc rule ->
      Key_tbl.fold (fun _ slot acc -> acc + List.length !slot) rule.instances acc)
    0 t.rules

let dropped_instances t = t.dropped
let suppressed t = t.suppressed

let pp_occurrence ppf o =
  Format.fprintf ppf "%s fired for %a (started chronon %d, fired chronon %d, sn %a)"
    o.rule Value.pp_list o.key_values o.started_at o.fired_at Seqnum.pp o.fired_sn

let chronicle t = t.chron
let max_instances_per_key t = t.max_instances
let rules t = List.map (fun r -> r.spec) t.rules

type rule_dump = {
  rd_rule : rule;
  rd_instances : (Value.t list * (Seqnum.chronon * Pattern.t) list) list;
  rd_last_fired : (Value.t list * Seqnum.chronon) list;
}

type dump = {
  d_rules : rule_dump list;
  d_occurrences : occurrence list;
  d_dropped : int;
  d_suppressed : int;
}

let dump t =
  let sort_by_key l = List.sort (fun (a, _) (b, _) -> Value.compare_list a b) l in
  {
    d_rules =
      List.map
        (fun r ->
          {
            rd_rule = r.spec;
            rd_instances =
              sort_by_key
                (Key_tbl.fold
                   (fun key slot acc ->
                     ( key,
                       List.map (fun i -> (i.started_at, i.residual)) !slot )
                     :: acc)
                   r.instances []);
            rd_last_fired =
              sort_by_key (Key_tbl.fold (fun k c acc -> (k, c) :: acc) r.last_fired []);
          })
        t.rules;
    d_occurrences = occurrences t;
    d_dropped = t.dropped;
    d_suppressed = t.suppressed;
  }

let load t { d_rules; d_occurrences; d_dropped; d_suppressed } =
  if t.rules <> [] || Vec.length t.fired > 0 then
    invalid_arg "Detector.load: detector already has state";
  List.iter
    (fun rd ->
      add_rule t rd.rd_rule;
      let compiled =
        List.find
          (fun r -> String.equal r.spec.rule_name rd.rd_rule.rule_name)
          t.rules
      in
      List.iter
        (fun (key, partials) ->
          Key_tbl.replace compiled.instances key
            (ref (List.map (fun (started_at, residual) -> { started_at; residual }) partials)))
        rd.rd_instances;
      List.iter
        (fun (key, chronon) -> Key_tbl.replace compiled.last_fired key chronon)
        rd.rd_last_fired)
    d_rules;
  List.iter (fun o -> ignore (Vec.push t.fired o)) d_occurrences;
  t.dropped <- d_dropped;
  t.suppressed <- d_suppressed
