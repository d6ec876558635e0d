open Relational

(* A guard for (view, chronicle): either a compiled necessary condition
   on appended tuples, or [None] meaning "always maintain". *)
type entry = {
  view : View.t;
  guards : (Chron.t * (Tuple.t -> bool) option) list;
  plan : Delta.plan; (* compiled at registration; its claims go at unregistration *)
}

(* Entries live in a vector in registration order — the one iteration
   order every registry traversal uses.  [affected] in particular must
   be deterministic and stable (the transaction path folds in its order;
   a hash-table iteration order here would make the fold order, and
   hence any failure report, depend on hashing accidents).  The side table maps view name to its
   vector slot for O(1) [find]/duplicate checks under many views;
   [unregister] compacts the vector, preserving relative order.  The
   registered views' plans share key-join stages through [stages]. *)
type t = {
  entries : entry Vec.t;
  by_name : (string, int) Hashtbl.t; (* view name -> vector slot *)
  stages : Delta.stages;
  mutable checked : int;
  mutable skipped : int;
}

let create () =
  { entries = Vec.create (); by_name = Hashtbl.create 64; stages = Delta.stages ();
    checked = 0; skipped = 0 }

(* Extract a conjunction of selection predicates that is a necessary
   condition, on a tuple appended to the base chronicle [c], for the
   expression's delta to be non-empty.  The walk may descend through
   any operator whose delta is empty whenever the chronicle-side delta
   is empty: projections (no renaming), relation joins/products,
   sn-grouping, sequence joins (both sides must be non-empty, so either
   side's guard is necessary) and the left side of a difference.
   Predicates that mention attributes not present in the chronicle
   schema (e.g. relation attributes above a join) make the final
   compilation fail, and the caller falls back to "always maintain" —
   sound, merely less economical. *)
let rec extract_guard c expr acc =
  match expr with
  | Ca.Chronicle c' -> if c' == c then Some acc else None
  | Ca.Select (p, e) -> extract_guard c e (p :: acc)
  | Ca.Project (_, e)
  | Ca.KeyJoinRel (e, _, _)
  | Ca.ProductRel (e, _)
  | Ca.GroupBySeq (_, _, e) ->
      extract_guard c e acc
  | Ca.SeqJoin (l, r) -> (
      match extract_guard c l acc with
      | Some g -> Some g
      | None -> extract_guard c r acc)
  | Ca.Diff (l, _) ->
      (* Δ(E₁ − E₂) = ΔE₁ − ΔE₂ is empty whenever ΔE₁ is *)
      extract_guard c l acc
  | Ca.Union _ | Ca.CrossChron _ | Ca.ThetaJoinChron _ -> None

let guard_for view c =
  let body = Sca.body (View.def view) in
  (* Union of select-chains: a tuple is relevant if any branch's chain
     accepts it.  For a single chain the guard is the conjunction.  For
     other shapes (joins, differences, grouping above the chronicle) we
     keep the trivial guard. *)
  let rec branch_guards expr =
    match expr with
    | Ca.Union (l, r) -> (
        match branch_guards l, branch_guards r with
        | Some gl, Some gr -> Some (gl @ gr)
        | (Some _ | None), _ -> None)
    | _ when not (Ca.depends_on expr c) ->
        (* this branch cannot produce a delta for appends to [c] *)
        Some []
    | _ -> (
        match extract_guard c expr [] with
        | Some preds -> Some [ Predicate.conj preds ]
        | None -> None)
  in
  match branch_guards body with
  | None -> None
  | Some branches ->
      let pred = Predicate.disj branches in
      (try Some (Predicate.compile (Chron.schema c) pred)
       with Schema.Unknown_attribute _ -> None)

let register t view =
  let vname = View.name view in
  if Hashtbl.mem t.by_name vname then
    invalid_arg (Printf.sprintf "Registry.register: view %s already exists" vname);
  let chronicles = Ca.chronicles (Sca.body (View.def view)) in
  let guards = List.map (fun c -> (c, guard_for view c)) chronicles in
  (* warm the per-view Δ-plan cache: the one compilation happens at
     registration ([Stats.Plan_cache_miss] + [Stats.Plan_compile]), so
     every subsequent append is a pure cache hit.  Redefinition is
     unregister + register of a fresh view, which recompiles. *)
  let plan = View.plan ~stages:t.stages view in
  Hashtbl.replace t.by_name vname (Vec.push t.entries { view; guards; plan })

let unregister t name =
  match Hashtbl.find_opt t.by_name name with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.by_name name;
      Delta.release t.stages (Vec.get t.entries slot).plan;
      (* compact: shift the suffix down one slot, preserving the
         relative registration order of the survivors *)
      let n = Vec.length t.entries in
      for i = slot + 1 to n - 1 do
        let e = Vec.get t.entries i in
        Vec.set t.entries (i - 1) e;
        Hashtbl.replace t.by_name (View.name e.view) (i - 1)
      done;
      Vec.truncate t.entries (n - 1)

let find t name =
  Option.map
    (fun slot -> (Vec.get t.entries slot).view)
    (Hashtbl.find_opt t.by_name name)

(* Every enumeration below walks [t.entries] front to back, i.e. in
   registration order — a documented guarantee, not an accident. *)

let views t = List.map (fun e -> e.view) (Vec.to_list t.entries)

let dependents t c =
  Vec.fold
    (fun acc e ->
      if List.exists (fun (c', _) -> c' == c) e.guards then e.view :: acc
      else acc)
    [] t.entries
  |> List.rev

let affected t c tuples =
  Vec.fold
    (fun acc e ->
      match List.find_opt (fun (c', _) -> c' == c) e.guards with
      | None -> acc (* view does not depend on this chronicle *)
      | Some (_, None) -> e.view :: acc (* no guard: always maintain *)
      | Some (_, Some guard) ->
          t.checked <- t.checked + 1;
          if List.exists guard tuples then e.view :: acc
          else begin
            t.skipped <- t.skipped + 1;
            acc
          end)
    [] t.entries
  |> List.rev

let stages t = t.stages
let checked t = t.checked
let skipped t = t.skipped

let index_advice t =
  List.map
    (fun e -> (View.name e.view, Sca.group_attrs (View.def e.view)))
    (Vec.to_list t.entries)
