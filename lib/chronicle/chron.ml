open Relational

type retention = Discard | Window of int | Full

exception Not_retained of string
exception Restore_conflict of { chronicle : string; appended : int }

(* An index of a Full store over the columns [on]: for each value
   combination, the sequence numbers of the live rows holding it, newest
   first, one entry per row.  A key is the first stored tagged tuple
   that held it, read at [on], so it costs no copy of the row.  The
   bucket array doubles incrementally: while [old] is non-empty, every
   insertion moves two of its buckets into [data], and a key lives in
   [old] until its bucket has moved — so no single append pays for
   rehashing the whole index. *)
type bucket =
  | Nil
  | Cons of {
      row : Tuple.t;
      hash : int;
      mutable sns : Seqnum.t list;
      mutable next : bucket;
    }

type index = {
  on : int array;
  mutable keys : int;
  mutable data : bucket array; (* length a power of two *)
  mutable old : bucket array;
  mutable moved : int; (* buckets of [old] already moved *)
}

(* A Full store's growable column: fixed-size segments under a spine,
   so growing never copies the stored history (a doubling array would,
   in a pause that grows with |C|). *)
module Seg = struct
  let bits = 10
  let size = 1 lsl bits

  type 'a t = { mutable spine : 'a array array; mutable len : int; fill : 'a }

  let create fill = { spine = [||]; len = 0; fill }
  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Chron.Seg.get: out of bounds";
    t.spine.(i lsr bits).(i land (size - 1))

  let push t x =
    let s = t.len lsr bits in
    if s = Array.length t.spine then begin
      let spine = Array.make (max 4 (2 * s)) [||] in
      Array.blit t.spine 0 spine 0 s;
      t.spine <- spine
    end;
    if t.len land (size - 1) = 0 then t.spine.(s) <- Array.make size t.fill;
    t.spine.(s).(t.len land (size - 1)) <- x;
    t.len <- t.len + 1

  let iteri f t =
    for i = 0 to t.len - 1 do
      f i t.spine.(i lsr bits).(i land (size - 1))
    done

  (* Keep the first [n] entries: later segments go, and the tail of
     the last kept one is refilled so the GC can reclaim its entries. *)
  let truncate t n =
    if n < t.len then begin
      let keep = (n + size - 1) lsr bits in
      for s = keep to (t.len - 1) lsr bits do
        t.spine.(s) <- [||]
      done;
      for i = n to min t.len (keep lsl bits) - 1 do
        t.spine.(i lsr bits).(i land (size - 1)) <- t.fill
      done;
      t.len <- n
    end

  let clear t =
    t.spine <- [||];
    t.len <- 0
end

(* Full retention keeps every tuple in append order, which is also
   sequence-number order.  Retraction removes occurrences lazily: a
   removed slot keeps its tuple, so the store stays sn-sorted for
   binary search over [sns], and joins [dead]; dead slots are compacted
   away once they pass half the store, never while a mark is active.
   [indexes] are built on the first lookup over their columns (the
   occurrence index of {!occurrences} covers every user column, the
   re-probe index of {!matching} a view's group key), so a Full
   chronicle that never retracts pays nothing for them on its
   appends. *)
type full = {
  rows : Tuple.t Seg.t;
  sns : Seqnum.t Seg.t; (* each row's sn, unboxed, for the binary search *)
  dead : (int, unit) Hashtbl.t;
  mutable indexes : index list;
}

(* Retained storage: nothing, a ring of the last [n] tuples, or the full
   history. *)
type store =
  | No_store
  | Ring of { buf : Tuple.t option array; mutable next : int; mutable count : int }
  | All of full

(* Undo state of an active mark, most recent first. *)
type undo =
  | Overwritten of int * Tuple.t option (* ring slot and its old content *)
  | Removed of int (* Full slot retracted *)

type t = {
  name : string;
  group : Group.t;
  user_schema : Schema.t;
  schema : Schema.t;
  retention : retention;
  store : store;
  mutable total : int;
  mutable last_sn : Seqnum.t option;
  mutable undo : undo list option;
      (* [Some] only while a transactional mark is active (see
         [mark]/[rollback]) *)
}

let create ~group ?(retention = Discard) ~name user_schema =
  if Schema.mem user_schema Seqnum.attr then
    invalid_arg
      (Printf.sprintf
         "Chron.create %s: user schema must not contain the reserved \
          sequencing attribute %S"
         name Seqnum.attr);
  let schema =
    Schema.concat (Schema.make [ (Seqnum.attr, Value.TInt) ]) user_schema
  in
  let store =
    match retention with
    | Discard -> No_store
    | Window n ->
        if n <= 0 then invalid_arg "Chron.create: window must be positive";
        Ring { buf = Array.make n None; next = 0; count = 0 }
    | Full -> All
          {
            rows = Seg.create [||];
            sns = Seg.create Seqnum.zero;
            dead = Hashtbl.create 8;
            indexes = [];
          }
  in
  {
    name;
    group;
    user_schema;
    schema;
    retention;
    store;
    total = 0;
    last_sn = None;
    undo = None;
  }

let name t = t.name
let group t = t.group
let user_schema t = t.user_schema
let schema t = t.schema
let retention t = t.retention
let total_appended t = t.total
let last_sn t = t.last_sn

let tag sn tuple = Tuple.concat [| Seqnum.value sn |] tuple
let sn_of tuple = Seqnum.of_value (Tuple.get tuple 0)
let untag tuple = Array.sub tuple 1 (Array.length tuple - 1)

let log_undo t u =
  match t.undo with Some us -> t.undo <- Some (u :: us) | None -> ()

(* ---- the indexes of a Full store ---- *)

let hash_at on row =
  Array.fold_left (fun h c -> (h * 31) + Value.hash row.(c)) 7 on land max_int

let equal_at on a b = Array.for_all (fun c -> Value.equal a.(c) b.(c)) on

(* [size] buckets, rounded up to a power of two. *)
let new_index on ~size =
  let rec pow2 k = if k >= size then k else pow2 (2 * k) in
  { on; keys = 0; data = Array.make (pow2 64) Nil; old = [||]; moved = 0 }

let slot arr h = h land (Array.length arr - 1)

(* The bucket array holding the chain of hash [h]. *)
let home ix h =
  if ix.moved < Array.length ix.old && slot ix.old h >= ix.moved then ix.old
  else ix.data

let lookup ix row =
  let h = hash_at ix.on row in
  let arr = home ix h in
  let rec find = function
    | Nil -> []
    | Cons c -> if equal_at ix.on c.row row then c.sns else find c.next
  in
  find arr.(slot arr h)

(* Move up to [n] buckets of [old] into [data]. *)
let migrate ix n =
  let stop = min (Array.length ix.old) (ix.moved + n) in
  for i = ix.moved to stop - 1 do
    let rec move = function
      | Nil -> ()
      | Cons c as cell ->
          let rest = c.next and j = slot ix.data c.hash in
          c.next <- ix.data.(j);
          ix.data.(j) <- cell;
          move rest
    in
    move ix.old.(i);
    ix.old.(i) <- Nil
  done;
  ix.moved <- stop;
  if stop = Array.length ix.old then ix.old <- [||]

let grow ix =
  migrate ix (Array.length ix.old);
  ix.old <- ix.data;
  ix.moved <- 0;
  ix.data <- Array.make (2 * Array.length ix.old) Nil

(* Insert a tagged tuple's sn into its key's list, keeping it newest
   first: an append lands at the head, a rolled-back removal at its
   old place. *)
let index_add ix tuple =
  migrate ix 2;
  let sn = sn_of tuple and h = hash_at ix.on tuple in
  let rec ins = function s :: rest when s > sn -> s :: ins rest | l -> sn :: l in
  let arr = home ix h in
  let j = slot arr h in
  let rec bump = function
    | Nil -> false
    | Cons c ->
        if equal_at ix.on c.row tuple then begin
          c.sns <- ins c.sns;
          true
        end
        else bump c.next
  in
  if not (bump arr.(j)) then begin
    arr.(j) <- Cons { row = tuple; hash = h; sns = [ sn ]; next = arr.(j) };
    ix.keys <- ix.keys + 1;
    if ix.keys > Array.length ix.data then grow ix
  end

let index_del ix tuple =
  let sn = sn_of tuple and h = hash_at ix.on tuple in
  let rec del = function
    | s :: rest when s = sn -> rest
    | s :: rest -> s :: del rest
    | [] -> []
  in
  let arr = home ix h in
  let j = slot arr h in
  let rec unlink = function
    | Nil -> Nil
    | Cons c as cell when equal_at ix.on c.row tuple ->
        c.sns <- del c.sns;
        if c.sns = [] then begin
          ix.keys <- ix.keys - 1;
          c.next
        end
        else cell
    | Cons c as cell ->
        c.next <- unlink c.next;
        cell
  in
  arr.(j) <- unlink arr.(j)

let index_insert f tuple = List.iter (fun ix -> index_add ix tuple) f.indexes
let index_remove f tuple = List.iter (fun ix -> index_del ix tuple) f.indexes

let live f i = Hashtbl.length f.dead = 0 || not (Hashtbl.mem f.dead i)

let store_tuple t tuple =
  match t.store with
  | No_store -> ()
  | Ring r ->
      if t.undo <> None then log_undo t (Overwritten (r.next, r.buf.(r.next)));
      r.buf.(r.next) <- Some tuple;
      r.next <- (r.next + 1) mod Array.length r.buf;
      r.count <- min (r.count + 1) (Array.length r.buf)
  | All f ->
      Seg.push f.rows tuple;
      Seg.push f.sns (sn_of tuple);
      index_insert f tuple

let check_batch t tuples =
  List.iter
    (fun tu ->
      if not (Tuple.type_check t.user_schema tu) then
        invalid_arg
          (Format.asprintf "Chron.append %s: tuple %a does not match schema %a"
             t.name Tuple.pp tu Schema.pp t.user_schema))
    tuples

(* Record a batch already holding a claimed sequence number; returns the
   tagged tuples. *)
let record t sn tuples =
  check_batch t tuples;
  let tagged = List.map (tag sn) tuples in
  List.iter (store_tuple t) tagged;
  t.total <- t.total + List.length tuples;
  t.last_sn <- Some sn;
  tagged

let append t tuples =
  let sn = Group.next_sn t.group in
  ignore (record t sn tuples);
  sn

let append_sparse t sn tuples =
  Group.claim_sn t.group sn;
  ignore (record t sn tuples)

let append_multi group batch =
  List.iter
    (fun (c, _) ->
      if not (Group.same c.group group) then
        invalid_arg
          (Printf.sprintf "Chron.append_multi: %s is not in group %s" c.name
             (Group.name group)))
    batch;
  let sn = Group.next_sn group in
  List.iter (fun (c, tuples) -> ignore (record c sn tuples)) batch;
  sn

let restore t ~total ~last_sn ~retained =
  if t.total <> 0 then
    raise (Restore_conflict { chronicle = t.name; appended = t.total });
  List.iter (store_tuple t) retained;
  t.total <- total;
  t.last_sn <- last_sn

(* ---- transactional marks (Db's write-bracket rollback path) ---- *)

type store_mark =
  | M_none
  | M_all of int
  | M_ring of { next : int; count : int }

type mark = { m_total : int; m_last_sn : Seqnum.t option; m_store : store_mark }

let mark t =
  (match t.store with Ring _ | All _ -> t.undo <- Some [] | No_store -> ());
  {
    m_total = t.total;
    m_last_sn = t.last_sn;
    m_store =
      (match t.store with
      | No_store -> M_none
      | All f -> M_all (Seg.length f.rows)
      | Ring r -> M_ring { next = r.next; count = r.count });
  }

(* Drop the dead slots of a Full store once they pass half of it: each
   compaction is paid for by the removals since the last one. *)
let compact f =
  if 2 * Hashtbl.length f.dead > Seg.length f.rows then begin
    let kept = ref [] in
    Seg.iteri (fun i tu -> if live f i then kept := tu :: !kept) f.rows;
    Seg.clear f.rows;
    Seg.clear f.sns;
    List.iter
      (fun tu ->
        Seg.push f.rows tu;
        Seg.push f.sns (sn_of tu))
      (List.rev !kept);
    Hashtbl.reset f.dead
  end

let commit t =
  t.undo <- None;
  match t.store with All f -> compact f | No_store | Ring _ -> ()

let rollback t m =
  let undo =
    match t.undo, t.store with
    | Some undo, _ -> undo
    | None, No_store -> []
    | None, (Ring _ | All _) -> invalid_arg "Chron.rollback: no active mark"
  in
  (match t.store, m.m_store with
  | No_store, M_none -> ()
  | All f, M_all n ->
      List.iter
        (function
          | Removed i ->
              Hashtbl.remove f.dead i;
              index_insert f (Seg.get f.rows i)
          | Overwritten _ -> assert false)
        undo;
      for i = Seg.length f.rows - 1 downto n do
        index_remove f (Seg.get f.rows i)
      done;
      Seg.truncate f.rows n;
      Seg.truncate f.sns n
  | Ring r, M_ring { next; count } ->
      (* undo entries are most-recent-first: replaying them in order
         ends with each slot holding its pre-mark value, even if a big
         batch lapped the ring and overwrote a slot repeatedly *)
      List.iter
        (function
          | Overwritten (i, old) -> r.buf.(i) <- old
          | Removed _ -> assert false)
        undo;
      r.next <- next;
      r.count <- count
  | (No_store | All _ | Ring _), _ ->
      invalid_arg "Chron.rollback: mark is from a different chronicle");
  t.undo <- None;
  t.total <- m.m_total;
  t.last_sn <- m.m_last_sn

let stored_count t =
  match t.store with
  | No_store -> 0
  | Ring r -> r.count
  | All f -> Seg.length f.rows - Hashtbl.length f.dead

let scan f t =
  let deliver tuple =
    Stats.incr Stats.Chronicle_scan;
    f tuple
  in
  match t.store with
  | No_store -> ()
  | Ring r ->
      let n = Array.length r.buf in
      let start = if r.count < n then 0 else r.next in
      for i = 0 to r.count - 1 do
        match r.buf.((start + i) mod n) with
        | Some tuple -> deliver tuple
        | None -> assert false
      done
  | All f -> Seg.iteri (fun i tu -> if live f i then deliver tu) f.rows

let stored t =
  let acc = ref [] in
  scan (fun tu -> acc := tu :: !acc) t;
  List.rev !acc

(* ---- retraction support (ℤ-weighted deltas) ----

   Retraction edits retained history in place, so it demands [Full]
   retention: a ring may already have evicted the occurrence being
   removed, and [Discard] never had it.  [total]/[last_sn] deliberately
   do not move — they count the append history of the chronicle, and a
   retraction is a later event, not an un-happening of the append. *)

let full_store what t =
  match t.store with
  | All f -> f
  | No_store | Ring _ ->
      raise
        (Not_retained
           (Printf.sprintf
              "%s %s: retraction requires Full retention (stored occurrences \
               must be addressable)"
              what t.name))

(* The live slots holding [sn], ascending: binary search for the first
   slot at or after [sn], then a walk over the batch. *)
let slots f sn =
  let sns = f.sns in
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Seg.get sns mid < sn then first (mid + 1) hi else first lo mid
  in
  let n = Seg.length sns in
  let rec walk i acc =
    if i < n && Seg.get sns i = sn then
      walk (i + 1) (if live f i then i :: acc else acc)
    else List.rev acc
  in
  walk (first 0 n) []

let at_sn t sn =
  let f = full_store "Chron.at_sn" t in
  List.map (Seg.get f.rows) (slots f sn)

(* The index over [on], built in one pass over the store on first use;
   [size] is the caller's guess at its key count. *)
let index f on ~size =
  match List.find_opt (fun ix -> ix.on = on) f.indexes with
  | Some ix -> ix
  | None ->
      let ix = new_index on ~size in
      Seg.iteri (fun i tu -> if live f i then index_add ix tu) f.rows;
      f.indexes <- ix :: f.indexes;
      ix

let occurrences t row =
  let f = full_store "Chron.occurrences" t in
  let on = Array.init (Array.length row) (fun i -> i + 1) in
  (* nearly every stored row is its own key *)
  lookup (index f on ~size:(Seg.length f.rows)) (tag Seqnum.zero row)

let matching t ~cols =
  let f = full_store "Chron.matching" t in
  let ix = index f cols ~size:64 in
  fun keys ->
    let probes =
      List.map
        (fun key ->
          let row = Array.make (Array.fold_left max 0 cols + 1) Value.Null in
          Array.iteri (fun i c -> row.(c) <- key.(i)) cols;
          row)
        keys
    in
    let wanted tu = List.exists (equal_at cols tu) probes in
    List.concat_map (lookup ix) probes
    |> List.sort_uniq Seqnum.compare
    |> List.concat_map (fun sn ->
           List.filter_map
             (fun i ->
               let tu = Seg.get f.rows i in
               if wanted tu then begin
                 Stats.incr Stats.Chronicle_scan;
                 Some tu
               end
               else None)
             (slots f sn))

let remove_stored t sn rows =
  let f = full_store "Chron.remove_stored" t in
  check_batch t rows;
  let free = ref (slots f sn) in
  let victims =
    List.map
      (fun row ->
        let tu = tag sn row in
        let stored i = Tuple.equal (Seg.get f.rows i) tu in
        match List.find_opt stored !free with
        | Some i ->
            free := List.filter (fun j -> j <> i) !free;
            i
        | None ->
            invalid_arg
              (Format.asprintf
                 "Chron.remove_stored %s: tuple %a has no stored occurrence \
                  at sn %d"
                 t.name Tuple.pp tu sn))
      rows
  in
  List.iter
    (fun i ->
      Hashtbl.replace f.dead i ();
      index_remove f (Seg.get f.rows i);
      log_undo t (Removed i))
    victims;
  if t.undo = None then compact f

let pp ppf t =
  Format.fprintf ppf "chronicle %s %a [appended %d, retained %d]" t.name
    Schema.pp t.user_schema t.total (stored_count t)
