(* Heavy-light partition state for one compiled key-join site.

   Invariants that carry the byte-identity proof obligation:

   - a cached run for [key] is exactly
       [List.map project (Relation.lookup rel ~attrs key)]
     evaluated at relation version [rel_version] (the build walks the
     row-id space in contiguous chunks with [lookup_bounded], whose
     contract says the concatenation equals [lookup]'s answer);
   - a cached run is only ever served while
     [Relation.version rel = rel_version]: the first probe after any
     relation mutation demotes everything before answering;
   - promotion installs the run with a single [Heavy.replace] after
     the build completes, and the fault probe fires before it — so a
     crash inside a promote leaves no partial state, and a crash inside
     a demote leaves [rel_version] stale, which makes the next probe
     re-run the (idempotent) demotion.

   The frequency table is approximate by design: a direct-mapped
   sketch (one slot per hash bucket, colliding keys conflate) with
   lazy epoch decay — every [decay_interval] touches the epoch
   advances, and a slot's count is right-shifted by its age on the
   next read.  Tracking is therefore O(1) and allocation-free per
   probe, with no periodic sweep to spike the append tail; a stale
   cold slot simply reads as (near) zero.  Approximation only affects
   *which* keys are heavy (collisions can only over-promote) — never
   the tuples a probe returns. *)

let adaptive_base = 16
let max_heavy = 64
let sketch_bits = 12
let sketch_size = 1 lsl sketch_bits
let decay_interval = 8192
let build_chunk = 4096

(* Each sketch slot packs (epoch lsl count_bits) lor count into one
   int, so a touch reads and writes a single cache line — the sketch
   must not add cache pressure of its own on top of the relation
   index it is trying to shield.  Counts cap near 2 * decay_interval,
   comfortably under 2^count_bits. *)
let count_bits = 20
let count_mask = (1 lsl count_bits) - 1

(* Counts are halved every [decay_interval] touches, so they top out
   near 2 * [decay_interval]: a configured bar at or above this cutoff
   can never be reached.  Treat it as an explicit off-switch and skip
   tracking entirely — the lazy fold is then exactly the
   pre-partition maintenance path (the baseline E19 measures
   against). *)
let off_threshold = 65_536

(* Heavy runs by key, hashed and compared by value. *)
module Heavy = Hashtbl.Make (struct
  type t = Value.t list

  let equal = Value.equal_list
  let hash = Tuple.hash_list
end)

type t = {
  configured : int;  (* <= 0 = adaptive *)
  off : bool;  (* unreachable bar: pure lazy folds, no tracking *)
  mutable threshold : int;
  counts : int array;  (* direct-mapped packed (epoch, count) slots *)
  mutable epoch : int;  (* advances every [decay_interval] touches *)
  heavy : Tuple.t list Heavy.t;
  mutable rel_version : int;  (* version the heavy runs were built at *)
  mutable touches : int;  (* probes since the last epoch advance *)
}

let create ?(threshold = 0) () =
  {
    configured = threshold;
    off = threshold >= off_threshold;
    threshold = (if threshold <= 0 then adaptive_base else threshold);
    counts = Array.make sketch_size 0;
    epoch = 0;
    heavy = Heavy.create 16;
    rel_version = -1;
    touches = 0;
  }

let threshold t = t.threshold
let heavy_count t = Heavy.length t.heavy
let is_heavy t key = Heavy.mem t.heavy key
let p_promote = "heavy-promote"
let p_demote = "heavy-demote"

(* The transition probe is process-global (like [Db.set_fold_probe]'s
   role, but partition sites are created inside compiled plans where no
   database handle is in scope).  Written only by the durability
   layer's attach/detach; read on the fold path — a plain word-sized
   load, safe under the OCaml memory model. *)
let probe : (string -> unit) option ref = ref None
let set_probe f = probe := f
let hit_probe point = match !probe with None -> () | Some f -> f point

let demote t key =
  hit_probe p_demote;
  Stats.incr Stats.Heavy_demote;
  Heavy.remove t.heavy key

(* Demote every heavy key.  [rel_version] is updated only after the
   last removal so that a probe-injected crash mid-teardown re-enters
   this sweep on the next fold instead of serving a stale run. *)
let demote_all t version =
  let keys = Heavy.fold (fun k _ acc -> k :: acc) t.heavy [] in
  List.iter (demote t) keys;
  t.rel_version <- version

(* Single-int keys (by far the common join-key shape: one keyed
   attribute) take a multiplicative hash instead of the structural
   [Hashtbl.hash] walk — the sketch touch sits on every appended
   tuple's fold path, so tens of nanoseconds matter here.  Conflating
   differently-shaped keys is harmless: the sketch is approximate and
   collisions can only over-promote. *)
let slot key =
  match key with
  | [ Value.Int n ] -> (n * 0x9E3779B1) lsr 11 land (sketch_size - 1)
  | k -> Hashtbl.hash k land (sketch_size - 1)

(* A slot's effective count: halved once per epoch it has sat
   unwritten — the lazy form of the periodic decay sweep. *)
let count_of t s =
  let v = t.counts.(s) in
  let age = t.epoch - (v lsr count_bits) in
  if age > count_bits then 0 else (v land count_mask) lsr age

(* Count one arrival of [key]; returns its (approximate) count.  One
   array read, one write, no allocation. *)
let touch t key =
  t.touches <- t.touches + 1;
  if t.touches >= decay_interval then begin
    t.touches <- 0;
    t.epoch <- t.epoch + 1
  end;
  let s = slot key in
  let c = count_of t s + 1 in
  t.counts.(s) <- (t.epoch lsl count_bits) lor c;
  c

(* Materialize [key]'s projected run by walking the row-id space in
   contiguous chunks — [lookup_bounded]'s concatenation contract makes
   the result byte-identical to one [lookup].  The chunk scales with
   the row bound (never more than four probes per build): a promote
   must stay cheap even when the stream churns keys across the bar,
   or rebuild cost lands in the very tail the partition is flattening. *)
let build_run rel ~attrs ~project key =
  let bound = Relation.row_bound rel in
  let chunk = max build_chunk ((bound + 3) / 4) in
  let rec go lo acc =
    if lo >= bound then List.concat (List.rev acc)
    else
      let hi = min bound (lo + chunk) in
      go hi (Relation.lookup_bounded rel ~attrs key ~lo ~hi :: acc)
  in
  List.map project (go 0 [])

(* Adaptive rebalance: if the heavy set outgrew its budget, double the
   bar and demote the keys now under it. *)
let rebalance t =
  if t.configured <= 0 then
    while Heavy.length t.heavy > max_heavy do
      t.threshold <- t.threshold * 2;
      let cold =
        Heavy.fold
          (fun k _ acc ->
            if count_of t (slot k) < t.threshold then k :: acc else acc)
          t.heavy []
      in
      List.iter (demote t) cold
    done

(* The lazy probe: each current match of [key], projected, to [f x].
   The walks are top-level functions of their arguments, so a probe
   builds no closure. *)
let rec iter_rows rel project f x = function
  | [] -> ()
  | row :: rows ->
      (match Relation.get rel row with Some rtu -> f x (project rtu) | None -> ());
      iter_rows rel project f x rows

let rec iter_run f x = function
  | [] -> ()
  | rtu :: run ->
      f x rtu;
      iter_run f x run

let iter_lazy rel ~attrs ~project key f x =
  Stats.incr Stats.Light_fold;
  iter_rows rel project f x (Relation.lookup_rows rel ~attrs key)

let iter_tracked t rel ~attrs ~project key f x =
  let v = Relation.version rel in
  if v <> t.rel_version then demote_all t v;
  let count = touch t key in
  (* fast path: a key under the bar is served lazily without consulting
     the heavy table at all — promotion requires crossing the bar, and
     heavy keys keep arriving so their counts stay above it.  The rare
     exception (a heavy key whose sketch slot decayed under the bar)
     just takes the lazy fold, which is byte-identical to its cached
     run by the build invariant — it merely forgoes the cache hit. *)
  if count < t.threshold then iter_lazy rel ~attrs ~project key f x
  else
    match Heavy.find t.heavy key with
    | run ->
        Stats.incr Stats.Heavy_probe;
        iter_run f x run
    | exception Not_found ->
        let run = build_run rel ~attrs ~project key in
        hit_probe p_promote;
        Stats.incr Stats.Heavy_promote;
        Heavy.replace t.heavy key run;
        rebalance t;
        iter_run f x run

let iter_matches t rel ~attrs ~project key f x =
  if t.off then iter_lazy rel ~attrs ~project key f x
  else iter_tracked t rel ~attrs ~project key f x

let matches t rel ~attrs ~project key =
  let acc = ref [] in
  iter_matches t rel ~attrs ~project key (fun () rtu -> acc := rtu :: !acc) ();
  List.rev !acc
