open Relational

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Value.hash_list
end)

module Key_tree = Btree.Make (struct
  type t = Value.t list

  let compare = Value.compare_list
end)

(* The group table: either hash-backed (expected O(1) localization, with
   a side vector remembering insertion order) or B+-tree-backed
   (O(log |V|) worst case, ordered iteration).

   A hash backing's order vector holds [(key, entry)] slots.  Removal
   only drops the key from the table and leaves a ghost slot behind: a
   slot is live exactly when the table maps its key to its entry
   (entries are mutable records or refs, so physical identity names the
   slot).  Survivors keep their order, a re-added key gets a new slot
   at the end, and ghosts are compacted away once they pass half the
   vector, so removal is O(1) amortised. *)
type 'v backing =
  | Hash of 'v Key_tbl.t * (Value.t list * 'v) Vec.t
  | Tree of 'v Key_tree.t

(* Every entry carries a hidden ℤ-multiplicity: how many body-output
   occurrences support it.  A delta's plus half increments it
   (invisible to the outside: set semantics and aggregate states are
   unchanged); its minus half decrements it and drops the entry exactly
   when it reaches zero. *)
type group = { mutable g_mult : int; g_states : Aggregate.state array }

type contents =
  | Groups of group backing (* Group_agg *)
  | Rows of int ref backing (* Project_out: a set of result tuples *)

(* Undo log of one transaction: one closure per entry created, removed
   or first touched, most recent first, so running them in order
   restores the pre-transaction contents and order.  [tx_seen] holds
   the keys already saved or created: a key's pre-touch state is saved
   once. *)
type txn = {
  tx_batches : int;
  mutable tx_undo : (unit -> unit) list;
  tx_seen : unit Key_tbl.t;
}

type t = {
  def : Sca.t;
  body_schema : Schema.t;
  key_of : Tuple.t -> Tuple.t;
  aggs : Aggregate.call list;
  arg_pos : int option array;
  contents : contents;
  mutable batches : int;
  mutable txn : txn option;
      (* active transaction; [Db] brackets every append and retraction
         with [begin_txn] … [commit_txn]/[rollback_txn] so a failure
         leaves no partially-maintained view observable *)
  heavy_threshold : int;
      (* promotion bar for the plan's key-join partitions; 0 = adaptive
         (see [Skew]) *)
  mutable plan : Delta.plan option;
      (* compiled body Δ-plan, built on first use and kept for the
         view's lifetime.  Redefining a view creates a fresh [t], so the
         cache is invalidated exactly when the definition changes. *)
}

let make_backing : type v. Index.kind -> v backing = function
  | Index.Hash -> Hash (Key_tbl.create 256, Vec.create ())
  | Index.Ordered -> Tree (Key_tree.create ())

let backing_find : type v. v backing -> Value.t list -> v option =
 fun b key ->
  Stats.incr Stats.Group_lookup;
  match b with
  | Hash (tbl, _) ->
      Stats.incr Stats.Index_probe;
      Key_tbl.find_opt tbl key
  | Tree tree -> Key_tree.find tree key

let backing_add : type v. v backing -> Value.t list -> v -> unit =
 fun b key v ->
  match b with
  | Hash (tbl, order) ->
      Key_tbl.add tbl key v;
      ignore (Vec.push order (key, v))
  | Tree tree -> ignore (Key_tree.insert tree key v)

let backing_size : type v. v backing -> int = function
  | Hash (tbl, _) -> Key_tbl.length tbl
  | Tree tree -> Key_tree.length tree

let slot_live tbl (key, v) =
  match Key_tbl.find_opt tbl key with Some v' -> v' == v | None -> false

let backing_iter : type v. (Value.t list -> v -> unit) -> v backing -> unit =
 fun f -> function
  | Hash (tbl, order) ->
      Vec.iter
        (fun ((key, v) as slot) -> if slot_live tbl slot then f key v)
        order
  | Tree tree -> Key_tree.iter f tree

let backing_compact : type v. v backing -> unit = function
  | Hash (tbl, order)
    when 2 * (Vec.length order - Key_tbl.length tbl) > Vec.length order ->
      let live =
        Vec.fold
          (fun acc slot -> if slot_live tbl slot then slot :: acc else acc)
          [] order
      in
      Vec.clear order;
      List.iter (fun slot -> ignore (Vec.push order slot)) (List.rev live)
  | Hash _ | Tree _ -> ()

(* Entry creation and removal, logged under an active transaction.  A
   removal's undo puts the same entry back: in a hash backing its ghost
   slot is live again, in its old place. *)
let add_entry : type v. t -> v backing -> Value.t list -> v -> unit =
 fun t b key v ->
  Stats.incr Stats.Tuple_write;
  backing_add b key v;
  match t.txn with
  | None -> ()
  | Some tx ->
      Key_tbl.replace tx.tx_seen key ();
      let undo =
        match b with
        | Hash (tbl, order) ->
            (* undone newest first, so its slot is the vector's tail *)
            fun () ->
              Key_tbl.remove tbl key;
              Vec.truncate order (Vec.length order - 1)
        | Tree tree -> fun () -> ignore (Key_tree.remove tree key)
      in
      tx.tx_undo <- undo :: tx.tx_undo

let remove_entry : type v. t -> v backing -> Value.t list -> v -> unit =
 fun t b key v ->
  Stats.incr Stats.Tuple_write;
  (match b with
  | Hash (tbl, _) -> Key_tbl.remove tbl key
  | Tree tree -> ignore (Key_tree.remove tree key));
  match t.txn with
  | None -> ()
  | Some tx ->
      let undo =
        match b with
        | Hash (tbl, _) -> fun () -> Key_tbl.add tbl key v
        | Tree tree -> fun () -> ignore (Key_tree.insert tree key v)
      in
      tx.tx_undo <- undo :: tx.tx_undo

(* An entry about to be stepped saves a pre-touch copy, once per key
   and transaction. *)
let touch_row t key r =
  match t.txn with
  | Some tx when not (Key_tbl.mem tx.tx_seen key) ->
      Key_tbl.replace tx.tx_seen key ();
      let m = !r in
      tx.tx_undo <- (fun () -> r := m) :: tx.tx_undo
  | Some _ | None -> ()

let touch_group t key g =
  match t.txn with
  | Some tx when not (Key_tbl.mem tx.tx_seen key) ->
      Key_tbl.replace tx.tx_seen key ();
      let mult = g.g_mult and saved = Array.copy g.g_states in
      tx.tx_undo <-
        (fun () ->
          g.g_mult <- mult;
          Array.blit saved 0 g.g_states 0 (Array.length saved))
        :: tx.tx_undo
  | Some _ | None -> ()

let create ?(index = Index.Hash) ?(heavy_threshold = 0) def =
  let body_schema = Ca.schema_of (Sca.body def) in
  let key_of, aggs =
    match Sca.summarize def with
    | Sca.Project_out attrs -> (Tuple.projector body_schema attrs, [])
    | Sca.Group_agg (gl, al) -> (Tuple.projector body_schema gl, al)
  in
  let arg_pos =
    Array.of_list
      (List.map
         (fun (c : Aggregate.call) -> Option.map (Schema.pos body_schema) c.arg)
         aggs)
  in
  let contents =
    match Sca.summarize def with
    | Sca.Project_out _ -> Rows (make_backing index)
    | Sca.Group_agg _ -> Groups (make_backing index)
  in
  { def; body_schema; key_of; aggs; arg_pos; contents; batches = 0; txn = None;
    heavy_threshold; plan = None }

let def t = t.def
let name t = Sca.name t.def
let schema t = Sca.schema t.def

let plan t =
  match t.plan with
  | Some p ->
      Stats.incr Stats.Plan_cache_hit;
      p
  | None ->
      Stats.incr Stats.Plan_cache_miss;
      let p =
        Delta.compile ~heavy_threshold:t.heavy_threshold (Sca.body t.def)
      in
      t.plan <- Some p;
      p

let index_kind t =
  let kind : type v. v backing -> Index.kind = function
    | Hash _ -> Index.Hash
    | Tree _ -> Index.Ordered
  in
  match t.contents with
  | Rows backing -> kind backing
  | Groups backing -> kind backing

let fresh_states t =
  Array.of_list
    (List.map (fun (c : Aggregate.call) -> Aggregate.init c.func) t.aggs)

let step_states t states tu =
  List.iteri
    (fun i (c : Aggregate.call) ->
      let arg =
        match t.arg_pos.(i) with
        | None -> Value.Int 1 (* COUNT over the whole tuple *)
        | Some p -> Tuple.get tu p
      in
      states.(i) <- Aggregate.step c.func states.(i) arg)
    t.aggs

(* Undo one [step_states] in place.  [`Reprobe] means some call could
   not invert (MIN/MAX losing its extremum); states may then be left
   partially inverted — the caller resets and refolds the whole group,
   so partial damage is unobservable. *)
let unstep_states t states tu =
  let inverted =
    List.mapi
      (fun i (c : Aggregate.call) ->
        let arg =
          match t.arg_pos.(i) with
          | None -> Value.Int 1
          | Some p -> Tuple.get tu p
        in
        Aggregate.unstep c.func states.(i) arg)
      t.aggs
  in
  if List.exists (function Aggregate.Reprobe -> true | _ -> false) inverted
  then `Reprobe
  else begin
    List.iteri
      (fun i inv ->
        match inv with
        | Aggregate.Inverted st -> states.(i) <- st
        | Aggregate.Reprobe -> assert false)
      inverted;
    `Inverted
  end

(* Outside a transaction nothing can roll back, so ghosts may go now. *)
let compact_unlogged t =
  if t.txn = None then
    match t.contents with
    | Rows backing -> backing_compact backing
    | Groups backing -> backing_compact backing

let no_reprobe _ =
  invalid_arg "View.apply: a MIN/MAX group lost its extremum without a re-probe source"

let absent what = invalid_arg ("View.apply: retracting an absent " ^ what)

(* Fold a Z-set body delta: the plus half, then the minus half, each in
   order.  A plus tuple steps its entry (creating it at multiplicity
   1); a minus tuple unsteps it, and an entry whose multiplicity
   reaches zero is removed.  Groups whose aggregates cannot invert are
   marked, then recomputed from a single call of [reprobe keys] — the
   view body's output over the {e already mutated} base, covering at
   least the marked groups' [keys] — bumping [Stats.Aggregate_reprobe]
   once per marked group.  Under an active transaction every entry is
   saved before it is first stepped, so [rollback_txn] undoes the whole
   fold. *)
let apply ?(reprobe = no_reprobe) t ({ plus; minus } : Delta.zset) =
  t.batches <- t.batches + 1;
  (match t.contents with
  | Rows backing ->
      List.iter
        (fun tu ->
          let key = Array.to_list (t.key_of tu) in
          match backing_find backing key with
          | Some r ->
              (* set semantics: already present; only the hidden
                 multiplicity moves *)
              touch_row t key r;
              incr r
          | None -> add_entry t backing key (ref 1))
        plus;
      List.iter
        (fun tu ->
          let key = Array.to_list (t.key_of tu) in
          match backing_find backing key with
          | Some r when !r = 1 -> remove_entry t backing key r
          | Some r ->
              touch_row t key r;
              decr r
          | None -> absent "row")
        minus
  | Groups backing ->
      List.iter
        (fun tu ->
          let key = Array.to_list (t.key_of tu) in
          let states =
            match backing_find backing key with
            | Some g ->
                touch_group t key g;
                g.g_mult <- g.g_mult + 1;
                g.g_states
            | None ->
                let g = { g_mult = 1; g_states = fresh_states t } in
                add_entry t backing key g;
                g.g_states
          in
          step_states t states tu)
        plus;
      if minus <> [] then begin
        let marked = Key_tbl.create 8 in
        List.iter
          (fun tu ->
            let key = Array.to_list (t.key_of tu) in
            if not (Key_tbl.mem marked key) then
              match backing_find backing key with
              | Some g -> (
                  touch_group t key g;
                  match unstep_states t g.g_states tu with
                  | `Inverted ->
                      g.g_mult <- g.g_mult - 1;
                      if g.g_mult = 0 then remove_entry t backing key g
                  | `Reprobe -> Key_tbl.replace marked key g)
              | None -> absent "group")
          minus;
        if Key_tbl.length marked > 0 then begin
          (* some MIN/MAX group lost its extremum: reset every marked
             group and refold it from one post-mutation body read *)
          Key_tbl.iter
            (fun _ g ->
              g.g_mult <- 0;
              let fresh = fresh_states t in
              Array.blit fresh 0 g.g_states 0 (Array.length fresh))
            marked;
          List.iter
            (fun tu ->
              let key = Array.to_list (t.key_of tu) in
              match Key_tbl.find_opt marked key with
              | Some g ->
                  step_states t g.g_states tu;
                  g.g_mult <- g.g_mult + 1
              | None -> ())
            (reprobe (Key_tbl.fold (fun key _ keys -> key :: keys) marked []));
          Key_tbl.iter
            (fun key g ->
              Stats.incr Stats.Aggregate_reprobe;
              if g.g_mult = 0 then remove_entry t backing key g)
            marked
        end
      end);
  compact_unlogged t

(* ---- transactional batches ---- *)

let begin_txn t =
  match t.txn with
  | Some _ -> invalid_arg "View.begin_txn: transaction already active"
  | None ->
      t.txn <-
        Some
          { tx_batches = t.batches; tx_undo = []; tx_seen = Key_tbl.create 8 }

let commit_txn t =
  t.txn <- None;
  compact_unlogged t

let rollback_txn t =
  match t.txn with
  | None -> invalid_arg "View.rollback_txn: no active transaction"
  | Some tx ->
      List.iter (fun undo -> undo ()) tx.tx_undo;
      t.batches <- tx.tx_batches;
      t.txn <- None

let replace t initial =
  let clear : type v. v backing -> unit =
   fun backing ->
    let entries = ref [] in
    backing_iter (fun key v -> entries := (key, v) :: !entries) backing;
    List.iter (fun (key, v) -> remove_entry t backing key v) !entries
  in
  (match t.contents with
  | Rows backing -> clear backing
  | Groups backing -> clear backing);
  apply t { plus = initial; minus = [] }

let of_initial ?index ?heavy_threshold def initial =
  let t = create ?index ?heavy_threshold def in
  apply t { plus = initial; minus = [] };
  t.batches <- 0;
  t

let row_of t key states =
  Tuple.make
    (key
    @ List.mapi
        (fun i (c : Aggregate.call) -> Aggregate.final c.func states.(i))
        t.aggs)

let lookup t key =
  match t.contents with
  | Rows backing ->
      Option.map (fun (_ : int ref) -> Tuple.make key) (backing_find backing key)
  | Groups backing ->
      Option.map (fun g -> row_of t key g.g_states) (backing_find backing key)

let multiplicity t key =
  match t.contents with
  | Rows backing -> (
      match backing_find backing key with Some r -> !r | None -> 0)
  | Groups backing -> (
      match backing_find backing key with Some g -> g.g_mult | None -> 0)

let size t =
  match t.contents with
  | Rows backing -> backing_size backing
  | Groups backing -> backing_size backing

let iter f t =
  match t.contents with
  | Rows backing ->
      backing_iter (fun key (_ : int ref) -> f (Tuple.make key)) backing
  | Groups backing ->
      backing_iter (fun key g -> f (row_of t key g.g_states)) backing

let to_list t =
  let acc = ref [] in
  iter (fun tu -> acc := tu :: !acc) t;
  List.rev !acc

let materialize t =
  let rel = Relation.create ~name:(name t) ~schema:(schema t) () in
  iter (fun tu -> ignore (Relation.insert rel tu)) t;
  rel

let maintained_batches t = t.batches

(* Dumps carry the hidden multiplicities, so a view restored through
   [load] maintains correctly under later retractions. *)
type dump =
  | Groups_dump of (Value.t list * int * Aggregate.state list) list
  | Rows_dump of (Value.t list * int) list

let dump t =
  match t.contents with
  | Rows backing ->
      let acc = ref [] in
      backing_iter (fun key r -> acc := (key, !r) :: !acc) backing;
      Rows_dump (List.rev !acc)
  | Groups backing ->
      let acc = ref [] in
      backing_iter
        (fun key g -> acc := (key, g.g_mult, Array.to_list g.g_states) :: !acc)
        backing;
      Groups_dump (List.rev !acc)

let load t dump =
  if size t <> 0 then invalid_arg "View.load: view is not empty";
  match t.contents, dump with
  | Rows backing, Rows_dump keys ->
      List.iter (fun (key, mult) -> backing_add backing key (ref mult)) keys
  | Groups backing, Groups_dump groups ->
      List.iter
        (fun (key, mult, states) ->
          if List.length states <> List.length t.aggs then
            invalid_arg "View.load: aggregate-state arity mismatch";
          backing_add backing key
            { g_mult = mult; g_states = Array.of_list states })
        groups
  | Rows _, Groups_dump _ | Groups _, Rows_dump _ ->
      invalid_arg "View.load: dump shape does not match the view kind"

let pp ppf t =
  Format.fprintf ppf "@[<v2>view %a [%d rows, %d batches]" Sca.pp t.def (size t)
    t.batches;
  iter (fun tu -> Format.fprintf ppf "@,%a" (Tuple.pp_with (schema t)) tu) t;
  Format.fprintf ppf "@]"
