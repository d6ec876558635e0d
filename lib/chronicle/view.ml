open Relational

(* View keys are tuples of the key columns, hashed and compared by
   value without building a closure ([Tuple.hash]/[Tuple.equal]). *)
module Key_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

module Key_tree = Btree.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

(* The group table: either hash-backed (expected O(1) localization, with
   a side vector remembering insertion order) or B+-tree-backed
   (O(log |V|) worst case, ordered iteration).

   A hash backing's order vector holds [(key, entry)] slots.  Removal
   only drops the key from the table and leaves a ghost slot behind: a
   slot is live exactly when the table maps its key to its entry
   (entries are mutable records, so physical identity names the slot).
   Survivors keep their order, a re-added key gets a new slot at the
   end, and ghosts are compacted away once they pass half the vector,
   so removal is O(1) amortised. *)
type 'v backing =
  | Hash of 'v Key_tbl.t * (Tuple.t * 'v) Vec.t
  | Tree of 'v Key_tree.t

(* Every entry carries a hidden ℤ-multiplicity: how many body-output
   occurrences support it.  A delta's plus half increments it
   (invisible to the outside: set semantics and aggregate states are
   unchanged); its minus half decrements it and drops the entry exactly
   when it reaches zero.  A group is its aggregate cells, stepped in
   place; its multiplicity is the cells' weight.  Each entry also
   carries the stamp of the last transaction that saved or created it
   (see [touch_group]). *)
type row = { mutable r_mult : int; mutable r_stamp : int }
type group = Aggregate.cells

type contents =
  | Groups of group backing (* Group_agg *)
  | Rows of row backing (* Project_out: a set of result tuples *)

(* Undo log of one transaction: one closure per entry created, removed
   or first touched, most recent first, so running them in order
   restores the pre-transaction contents and order. *)
type txn = { tx_batches : int; mutable tx_undo : (unit -> unit) list }

type t = {
  def : Sca.t;
  key_pos : int array;  (* positions of the view's key in a body tuple *)
  layout : Aggregate.layout;
  contents : contents;
  mutable batches : int;
  mutable txn : txn option;
      (* active transaction; [Db] brackets every append and retraction
         with [begin_txn] … [commit_txn]/[rollback_txn] so a failure
         leaves no partially-maintained view observable *)
  mutable stamp : int;
      (* bumped by [begin_txn]: an entry whose stamp equals it has been
         saved or created by the active transaction *)
  mutable lookups : int;
  mutable probes : int;
  mutable steps : int;
  mutable writes : int;
      (* work counters of the fold in progress, added to [Stats] once
         when it ends *)
  mutable plan : Delta.plan option;
      (* compiled body Δ-plan, built on first use and kept for the
         view's lifetime.  Redefining a view creates a fresh [t], so the
         cache is invalidated exactly when the definition changes. *)
}

let make_backing : type v. Index.kind -> v backing = function
  | Index.Hash -> Hash (Key_tbl.create 256, Vec.create ())
  | Index.Ordered -> Tree (Key_tree.create ())

(* The entry of [key]; raises [Not_found], so a hit allocates nothing.
   The caller counts the lookup ([count_lookup] on the fold, [find]
   elsewhere). *)
let backing_find : type v. v backing -> Tuple.t -> v =
 fun b key ->
  match b with
  | Hash (tbl, _) -> Key_tbl.find tbl key
  | Tree tree -> (
      match Key_tree.find tree key with Some v -> v | None -> raise Not_found)

let count_lookup : type v. t -> v backing -> unit =
 fun t b ->
  t.lookups <- t.lookups + 1;
  match b with Hash _ -> t.probes <- t.probes + 1 | Tree _ -> ()

let flush_work t =
  let add c n = if n > 0 then Stats.add c n in
  add Stats.Group_lookup t.lookups;
  add Stats.Index_probe t.probes;
  add Stats.Agg_step t.steps;
  add Stats.Tuple_write t.writes;
  t.lookups <- 0;
  t.probes <- 0;
  t.steps <- 0;
  t.writes <- 0

(* A counted lookup outside the fold, by a key given as a list. *)
let find : type v. v backing -> Value.t list -> v option =
 fun b key ->
  Stats.incr Stats.Group_lookup;
  (match b with Hash _ -> Stats.incr Stats.Index_probe | Tree _ -> ());
  match backing_find b (Tuple.make key) with v -> Some v | exception Not_found -> None

let backing_add : type v. v backing -> Tuple.t -> v -> unit =
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
  match Key_tbl.find tbl key with v' -> v' == v | exception Not_found -> false

let backing_iter : type v. (Tuple.t -> v -> unit) -> v backing -> unit =
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
   slot is live again, in its old place.  [key] is stored: never the
   fold's probe buffer. *)
let add_entry : type v. t -> v backing -> Tuple.t -> v -> unit =
 fun t b key v ->
  t.writes <- t.writes + 1;
  backing_add b key v;
  match t.txn with
  | None -> ()
  | Some tx ->
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

let remove_entry : type v. t -> v backing -> Tuple.t -> v -> unit =
 fun t b key v ->
  t.writes <- t.writes + 1;
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

(* An entry about to be stepped saves a pre-touch copy, once per
   transaction: its stamp says whether this transaction already saved
   (or created) it. *)
let touch_row t r =
  match t.txn with
  | Some tx when r.r_stamp <> t.stamp ->
      r.r_stamp <- t.stamp;
      let m = r.r_mult in
      tx.tx_undo <- (fun () -> r.r_mult <- m) :: tx.tx_undo
  | Some _ | None -> ()

let touch_group t (g : group) =
  match t.txn with
  | Some tx when g.stamp <> t.stamp ->
      g.stamp <- t.stamp;
      let saved = Aggregate.copy g in
      tx.tx_undo <- (fun () -> Aggregate.restore ~saved g) :: tx.tx_undo
  | Some _ | None -> ()

let create ?(index = Index.Hash) def =
  let body_schema = Ca.schema_of (Sca.body def) in
  let key_attrs = Sca.group_attrs def in
  let contents =
    match Sca.summarize def with
    | Sca.Project_out _ -> Rows (make_backing index)
    | Sca.Group_agg _ -> Groups (make_backing index)
  in
  {
    def;
    key_pos = Array.of_list (List.map (Schema.pos body_schema) key_attrs);
    layout = Sca.layout def;
    contents;
    batches = 0;
    txn = None;
    stamp = 0;
    lookups = 0;
    probes = 0;
    steps = 0;
    writes = 0;
    plan = None;
  }

let def t = t.def
let name t = Sca.name t.def
let schema t = Sca.schema t.def

let plan ?stages t =
  match t.plan with
  | Some p ->
      Stats.incr Stats.Plan_cache_hit;
      p
  | None ->
      Stats.incr Stats.Plan_cache_miss;
      let p = Delta.compile ?stages (Sca.body t.def) in
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

(* Outside a transaction nothing can roll back, so ghosts may go now. *)
let compact_unlogged t =
  if t.txn = None then
    match t.contents with
    | Rows backing -> backing_compact backing
    | Groups backing -> backing_compact backing

let no_reprobe _ =
  invalid_arg "View.apply: a MIN/MAX group lost its extremum without a re-probe source"

let absent what = invalid_arg ("View.apply: retracting an absent " ^ what)

let load_probe t probe tu =
  for i = 0 to Array.length t.key_pos - 1 do
    probe.(i) <- tu.(t.key_pos.(i))
  done

(* The sinks a delta streams into.  Each projects the tuple's key
   columns into [probe], a buffer of the fold, looks the entry up
   without allocating, and steps it in place; only a new entry copies
   the key.  A plus tuple steps its entry (creating it at multiplicity
   1); a minus tuple unsteps it, and an entry whose multiplicity
   reaches zero is removed.  A group whose aggregates cannot invert is
   put in [marked] (its later minus tuples are skipped) for [apply] to
   refold. *)
let row_plus t b probe tu =
  load_probe t probe tu;
  count_lookup t b;
  match backing_find b probe with
  | r ->
      (* set semantics: already present; only the hidden multiplicity
         moves *)
      touch_row t r;
      r.r_mult <- r.r_mult + 1
  | exception Not_found -> add_entry t b (Array.copy probe) { r_mult = 1; r_stamp = t.stamp }

let row_minus t b probe tu =
  load_probe t probe tu;
  count_lookup t b;
  match backing_find b probe with
  | r when r.r_mult = 1 -> remove_entry t b (Array.copy probe) r
  | r ->
      touch_row t r;
      r.r_mult <- r.r_mult - 1
  | exception Not_found -> absent "row"

let group_plus t b probe tu =
  load_probe t probe tu;
  count_lookup t b;
  let g =
    match backing_find b probe with
    | g ->
        touch_group t g;
        g
    | exception Not_found ->
        let g = Aggregate.fresh t.layout in
        g.stamp <- t.stamp;
        add_entry t b (Array.copy probe) g;
        g
  in
  t.steps <- t.steps + Aggregate.arity t.layout;
  Aggregate.step_cells t.layout g tu

let group_minus t b probe marked tu =
  load_probe t probe tu;
  match !marked with
  | Some m when Key_tbl.mem m probe -> ()
  | Some _ | None -> (
      count_lookup t b;
      match backing_find b probe with
      | g ->
          touch_group t g;
          t.steps <- t.steps + Aggregate.arity t.layout;
          if Aggregate.unstep_cells t.layout g tu then begin
            if g.weight = 0 then remove_entry t b (Array.copy probe) g
          end
          else begin
            let m =
              match !marked with
              | Some m -> m
              | None ->
                  let m = Key_tbl.create 8 in
                  marked := Some m;
                  m
            in
            Key_tbl.replace m (Array.copy probe) g
          end
      | exception Not_found -> absent "group")

(* Some MIN/MAX group lost its extremum: reset every marked group and
   refold it from one post-mutation body read. *)
let refold t b probe reprobe marked =
  Key_tbl.iter (fun _ g -> Aggregate.reset g) marked;
  List.iter
    (fun tu ->
      load_probe t probe tu;
      match Key_tbl.find marked probe with
      | g ->
          t.steps <- t.steps + Aggregate.arity t.layout;
          Aggregate.step_cells t.layout g tu
      | exception Not_found -> ())
    (reprobe (Key_tbl.fold (fun key _ keys -> Array.to_list key :: keys) marked []));
  Key_tbl.iter
    (fun key (g : group) ->
      Stats.incr Stats.Aggregate_reprobe;
      if g.weight = 0 then remove_entry t b key g)
    marked

(* Fold a Z-set body delta: the plus half, then the minus half, each in
   order, tuple by tuple as the stream delivers them.  Marked groups are
   recomputed from a single call of [reprobe keys] — the view body's
   output over the {e already mutated} base, covering at least the
   marked groups' [keys] — bumping [Stats.Aggregate_reprobe] once per
   marked group.  Under an active transaction every entry is saved
   before it is first stepped, so [rollback_txn] undoes the whole
   fold.  The fold's work counters reach [Stats] once, when it ends. *)
let apply ?(reprobe = no_reprobe) t (stream : Delta.stream) =
  t.batches <- t.batches + 1;
  let probe = Array.make (Array.length t.key_pos) Value.Null in
  Fun.protect
    ~finally:(fun () -> flush_work t)
    (fun () ->
      match t.contents with
      | Rows b -> stream ~plus:(row_plus t b probe) ~minus:(row_minus t b probe)
      | Groups b ->
          let marked = ref None in
          stream ~plus:(group_plus t b probe) ~minus:(group_minus t b probe marked);
          Option.iter (refold t b probe reprobe) !marked);
  compact_unlogged t

(* ---- transactional batches ---- *)

let begin_txn t =
  match t.txn with
  | Some _ -> invalid_arg "View.begin_txn: transaction already active"
  | None ->
      t.stamp <- t.stamp + 1;
      t.txn <- Some { tx_batches = t.batches; tx_undo = [] }

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
  apply t (Delta.of_zset { plus = initial; minus = [] })

let of_initial ?index def initial =
  let t = create ?index def in
  apply t (Delta.of_zset { plus = initial; minus = [] });
  t.batches <- 0;
  t

let row_of t key g = Array.append key (Array.of_list (Aggregate.finals t.layout g))

let lookup t key =
  match t.contents with
  | Rows backing -> Option.map (fun (_ : row) -> Tuple.make key) (find backing key)
  | Groups backing ->
      Option.map (fun g -> row_of t (Tuple.make key) g) (find backing key)

let multiplicity t key =
  match t.contents with
  | Rows backing -> ( match find backing key with Some r -> r.r_mult | None -> 0)
  | Groups backing -> (
      match find backing key with Some g -> g.Aggregate.weight | None -> 0)

let size t =
  match t.contents with
  | Rows backing -> backing_size backing
  | Groups backing -> backing_size backing

let iter f t =
  match t.contents with
  | Rows backing -> backing_iter (fun key (_ : row) -> f (Array.copy key)) backing
  | Groups backing -> backing_iter (fun key g -> f (row_of t key g)) backing

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
  | Groups_dump of (Value.t list * Aggregate.cells) list
  | Rows_dump of (Value.t list * int) list

let dump t =
  match t.contents with
  | Rows backing ->
      let acc = ref [] in
      backing_iter (fun key r -> acc := (Array.to_list key, r.r_mult) :: !acc) backing;
      Rows_dump (List.rev !acc)
  | Groups backing ->
      let acc = ref [] in
      backing_iter
        (fun key g ->
          acc := (Array.to_list key, Aggregate.copy g) :: !acc)
        backing;
      Groups_dump (List.rev !acc)

let load t dump =
  if size t <> 0 then invalid_arg "View.load: view is not empty";
  match t.contents, dump with
  | Rows backing, Rows_dump keys ->
      List.iter
        (fun (key, mult) ->
          backing_add backing (Tuple.make key) { r_mult = mult; r_stamp = t.stamp })
        keys
  | Groups backing, Groups_dump groups ->
      List.iter
        (fun (key, cells) ->
          let g = Aggregate.fresh t.layout in
          Aggregate.restore ~saved:cells g;
          g.stamp <- t.stamp;
          backing_add backing (Tuple.make key) g)
        groups
  | Rows _, Groups_dump _ | Groups _, Rows_dump _ ->
      invalid_arg "View.load: dump shape does not match the view kind"

let pp ppf t =
  Format.fprintf ppf "@[<v2>view %a [%d rows, %d batches]" Sca.pp t.def (size t)
    t.batches;
  iter (fun tu -> Format.fprintf ppf "@,%a" (Tuple.pp_with (schema t)) tu) t;
  Format.fprintf ppf "@]"
