module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (K : ORDERED) = struct
  (* Nodes are exact-size arrays replaced on the insert/remove path
     (O(degree * height) cell copies per update); the root pointer is
     the only long-lived mutable cell.  [Node (seps, kids)] has
     [Array.length kids = Array.length seps + 1]; subtree [kids.(i)]
     holds keys [k] with [seps.(i-1) <= k < seps.(i)]. *)
  type 'v node =
    | Leaf of (K.t * 'v) array
    | Node of K.t array * 'v node array

  type 'v t = {
    degree : int; (* max children of an internal node; max leaf entries *)
    mutable root : 'v node;
    mutable size : int;
  }

  let create ?(degree = 32) () =
    let degree = max 4 degree in
    { degree; root = Leaf [||]; size = 0 }

  let length t = t.size
  let is_empty t = t.size = 0

  let height t =
    let rec go = function
      | Leaf _ -> 1
      | Node (_, kids) -> 1 + go kids.(0)
    in
    go t.root

  (* Position of [key] in a sorted entry array: [Found i] or the
     insertion point [Insert i]. *)
  let search_leaf entries key =
    let lo = ref 0 and hi = ref (Array.length entries) in
    let found = ref (-1) in
    while !found < 0 && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = K.compare key (fst entries.(mid)) in
      if c = 0 then found := mid else if c < 0 then hi := mid else lo := mid + 1
    done;
    if !found >= 0 then Ok !found else Error !lo

  (* Child index to descend into: the first [i] with [key < seps.(i)],
     i.e. the number of separators [<= key]. *)
  let child_index seps key =
    let lo = ref 0 and hi = ref (Array.length seps) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare key seps.(mid) < 0 then hi := mid else lo := mid + 1
    done;
    !lo

  let find t key =
    Stats.incr Stats.Index_probe;
    let rec go node =
      Stats.incr Stats.Index_node_visit;
      match node with
      | Leaf entries -> (
          match search_leaf entries key with
          | Ok i -> Some (snd entries.(i))
          | Error _ -> None)
      | Node (seps, kids) -> go kids.(child_index seps key)
    in
    go t.root

  let mem t key = Option.is_some (find t key)

  let array_insert a i x =
    let n = Array.length a in
    Array.init (n + 1) (fun j ->
        if j < i then a.(j) else if j = i then x else a.(j - 1))

  let array_remove a i =
    let n = Array.length a in
    Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

  let array_set a i x =
    let a' = Array.copy a in
    a'.(i) <- x;
    a'

  type 'v ins = Done of 'v node | Split of 'v node * K.t * 'v node

  let insert t key value =
    Stats.incr Stats.Index_probe;
    let replaced = ref None in
    let rec go node =
      Stats.incr Stats.Index_node_visit;
      match node with
      | Leaf entries -> (
          match search_leaf entries key with
          | Ok i ->
              replaced := Some (snd entries.(i));
              Done (Leaf (array_set entries i (key, value)))
          | Error i ->
              let entries' = array_insert entries i (key, value) in
              if Array.length entries' <= t.degree then Done (Leaf entries')
              else
                let mid = Array.length entries' / 2 in
                let left = Array.sub entries' 0 mid in
                let right =
                  Array.sub entries' mid (Array.length entries' - mid)
                in
                Split (Leaf left, fst right.(0), Leaf right))
      | Node (seps, kids) -> (
          let i = child_index seps key in
          match go kids.(i) with
          | Done child -> Done (Node (seps, array_set kids i child))
          | Split (l, sep, r) ->
              let seps' = array_insert seps i sep in
              let kids' = array_insert (array_set kids i l) (i + 1) r in
              if Array.length kids' <= t.degree then Done (Node (seps', kids'))
              else
                (* split the internal node; the middle separator moves up *)
                let msep = Array.length seps' / 2 in
                let up = seps'.(msep) in
                let lseps = Array.sub seps' 0 msep in
                let rseps =
                  Array.sub seps' (msep + 1) (Array.length seps' - msep - 1)
                in
                let lkids = Array.sub kids' 0 (msep + 1) in
                let rkids =
                  Array.sub kids' (msep + 1) (Array.length kids' - msep - 1)
                in
                Split (Node (lseps, lkids), up, Node (rseps, rkids)))
    in
    (match go t.root with
    | Done node -> t.root <- node
    | Split (l, sep, r) -> t.root <- Node ([| sep |], [| l; r |]));
    if Option.is_none !replaced then t.size <- t.size + 1;
    !replaced

  let remove t key =
    Stats.incr Stats.Index_probe;
    let removed = ref None in
    let rec go node =
      Stats.incr Stats.Index_node_visit;
      match node with
      | Leaf entries -> (
          match search_leaf entries key with
          | Ok i ->
              removed := Some (snd entries.(i));
              Leaf (array_remove entries i)
          | Error _ -> node)
      | Node (seps, kids) -> (
          let i = child_index seps key in
          let child = go kids.(i) in
          let empty =
            match child with
            | Leaf [||] -> true
            | Leaf _ | Node _ -> false
          in
          if not empty then Node (seps, array_set kids i child)
          else if Array.length kids = 1 then
            (* the node's only subtree emptied: propagate emptiness up *)
            Leaf [||]
          else
            (* Drop the emptied leaf together with one adjacent separator
               (either neighbour keeps the bounds valid).  A node may end
               up with a single child and no separators; that keeps all
               leaf depths equal, and the root fixup below collapses such
               chains at the top. *)
            let seps' = array_remove seps (min i (Array.length seps - 1)) in
            Node (seps', array_remove kids i))
    in
    t.root <- go t.root;
    let rec collapse_root () =
      match t.root with
      | Node ([||], kids) ->
          t.root <- kids.(0);
          collapse_root ()
      | Leaf _ | Node _ -> ()
    in
    collapse_root ();
    if Option.is_some !removed then t.size <- t.size - 1;
    !removed

  let update t key f =
    match f (find t key) with
    | Some v -> ignore (insert t key v)
    | None -> ignore (remove t key)

  let min_binding t =
    let rec go = function
      | Leaf [||] -> None
      | Leaf entries -> Some entries.(0)
      | Node (_, kids) -> go kids.(0)
    in
    go t.root

  let max_binding t =
    let rec go = function
      | Leaf [||] -> None
      | Leaf entries -> Some entries.(Array.length entries - 1)
      | Node (_, kids) -> go kids.(Array.length kids - 1)
    in
    go t.root

  let iter f t =
    let rec go = function
      | Leaf entries -> Array.iter (fun (k, v) -> f k v) entries
      | Node (_, kids) -> Array.iter go kids
    in
    go t.root

  let fold f t acc =
    let acc = ref acc in
    iter (fun k v -> acc := f k v !acc) t;
    !acc

  let iter_range ?lo ?hi f t =
    let below_hi k =
      match hi with None -> true | Some h -> K.compare k h <= 0
    in
    let above_lo k =
      match lo with None -> true | Some l -> K.compare k l >= 0
    in
    let rec go node =
      Stats.incr Stats.Index_node_visit;
      match node with
      | Leaf entries ->
          Array.iter (fun (k, v) -> if above_lo k && below_hi k then f k v) entries
      | Node (seps, kids) ->
          let first = match lo with None -> 0 | Some l -> child_index seps l in
          let last =
            match hi with
            | None -> Array.length kids - 1
            | Some h -> child_index seps h
          in
          for i = first to last do
            go kids.(i)
          done
    in
    Stats.incr Stats.Index_probe;
    go t.root

  let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let check_sorted entries =
      for i = 1 to Array.length entries - 1 do
        if K.compare (fst entries.(i - 1)) (fst entries.(i)) >= 0 then
          fail "Btree: leaf entries not strictly sorted"
      done
    in
    (* returns (height, key count) of the subtree, checking that all keys
       lie within (lo, hi]-style bounds given as options *)
    let rec go node lo hi =
      match node with
      | Leaf entries ->
          check_sorted entries;
          if Array.length entries > t.degree then fail "Btree: leaf overflow";
          Array.iter
            (fun (k, _) ->
              (match lo with
              | Some l when K.compare k l < 0 -> fail "Btree: key below bound"
              | _ -> ());
              match hi with
              | Some h when K.compare k h >= 0 -> fail "Btree: key above bound"
              | _ -> ())
            entries;
          (1, Array.length entries)
      | Node (seps, kids) ->
          if Array.length kids <> Array.length seps + 1 then
            fail "Btree: kids/seps arity mismatch";
          if Array.length kids > t.degree then fail "Btree: node overflow";
          for i = 1 to Array.length seps - 1 do
            if K.compare seps.(i - 1) seps.(i) >= 0 then
              fail "Btree: separators not sorted"
          done;
          let heights = ref [] and count = ref 0 in
          Array.iteri
            (fun i kid ->
              let lo' = if i = 0 then lo else Some seps.(i - 1) in
              let hi' = if i = Array.length seps then hi else Some seps.(i) in
              let h, c = go kid lo' hi' in
              heights := h :: !heights;
              count := !count + c)
            kids;
          (match !heights with
          | [] -> fail "Btree: empty internal node"
          | h :: rest ->
              if not (List.for_all (Int.equal h) rest) then
                fail "Btree: uneven subtree heights");
          (1 + List.hd !heights, !count)
    in
    let _, count = go t.root None None in
    if count <> t.size then fail "Btree: size %d <> counted %d" t.size count
end
