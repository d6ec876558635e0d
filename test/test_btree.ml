open Relational
open Util

module T = Btree.Make (Int)

let test_empty () =
  let t = T.create () in
  check_int "length" 0 (T.length t);
  check_bool "is_empty" true (T.is_empty t);
  check_bool "find" true (T.find t 42 = None);
  check_bool "min" true (T.min_binding t = None);
  check_bool "max" true (T.max_binding t = None);
  T.check_invariants t

let test_insert_find () =
  let t = T.create ~degree:4 () in
  for i = 1 to 100 do
    Alcotest.check Alcotest.(option int) "fresh insert" None (T.insert t (i * 7 mod 101) i)
  done;
  T.check_invariants t;
  check_int "length" 100 (T.length t);
  for i = 1 to 100 do
    Alcotest.check Alcotest.(option int) "find" (Some i) (T.find t (i * 7 mod 101))
  done;
  check_bool "absent" true (T.find t 999 = None)

let test_replace () =
  let t = T.create () in
  ignore (T.insert t 1 "a");
  Alcotest.check Alcotest.(option string) "old value" (Some "a") (T.insert t 1 "b");
  Alcotest.check Alcotest.(option string) "new value" (Some "b") (T.find t 1);
  check_int "length unchanged" 1 (T.length t)

let test_ordered_iteration () =
  let t = T.create ~degree:4 () in
  List.iter (fun k -> ignore (T.insert t k (k * 10))) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  Alcotest.check Alcotest.(list int) "ascending keys"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map fst (T.to_list t));
  check_bool "min" true (T.min_binding t = Some (0, 0));
  check_bool "max" true (T.max_binding t = Some (9, 90))

let test_range () =
  let t = T.create ~degree:4 () in
  for i = 0 to 99 do
    ignore (T.insert t i (i * 2))
  done;
  let collect ?lo ?hi () =
    let acc = ref [] in
    T.iter_range ?lo ?hi (fun k _ -> acc := k :: !acc) t;
    List.rev !acc
  in
  Alcotest.check Alcotest.(list int) "inclusive bounds"
    [ 10; 11; 12; 13; 14; 15 ]
    (collect ~lo:10 ~hi:15 ());
  check_int "open lo" 16 (List.length (collect ~hi:15 ()));
  check_int "open hi" 10 (List.length (collect ~lo:90 ()));
  check_int "full" 100 (List.length (collect ()));
  check_int "empty range" 0 (List.length (collect ~lo:200 ~hi:300 ()))

let test_remove () =
  let t = T.create ~degree:4 () in
  for i = 0 to 49 do
    ignore (T.insert t i i)
  done;
  Alcotest.check Alcotest.(option int) "remove hit" (Some 25) (T.remove t 25);
  Alcotest.check Alcotest.(option int) "remove miss" None (T.remove t 25);
  check_int "length" 49 (T.length t);
  check_bool "gone" true (T.find t 25 = None);
  T.check_invariants t;
  (* drain everything *)
  for i = 0 to 49 do
    ignore (T.remove t i)
  done;
  check_int "drained" 0 (T.length t);
  T.check_invariants t;
  (* reusable after drain *)
  ignore (T.insert t 5 55);
  Alcotest.check Alcotest.(option int) "reinsert" (Some 55) (T.find t 5)

let test_update () =
  let t = T.create () in
  T.update t 3 (function None -> Some 1 | Some _ -> assert false);
  T.update t 3 (function Some v -> Some (v + 10) | None -> assert false);
  Alcotest.check Alcotest.(option int) "updated" (Some 11) (T.find t 3);
  T.update t 3 (fun _ -> None);
  check_bool "removed via update" true (T.find t 3 = None)

let test_height_logarithmic () =
  let t = T.create ~degree:8 () in
  for i = 0 to 9999 do
    ignore (T.insert t i i)
  done;
  T.check_invariants t;
  check_bool "height is O(log n)" true (T.height t <= 7)

let test_node_visits_logarithmic () =
  let t = T.create ~degree:8 () in
  for i = 0 to 9999 do
    ignore (T.insert t i i)
  done;
  let before = Stats.snapshot () in
  ignore (T.find t 5000);
  let after = Stats.snapshot () in
  let visits = Stats.diff_get before after Stats.Index_node_visit in
  check_bool
    (Printf.sprintf "one probe visits <= height nodes (%d)" visits)
    true
    (visits <= T.height t)

module Model = Map.Make (Int)

let qcheck_against_map_model =
  let gen = QCheck.(list (pair (int_bound 200) (oneofl [ `Add; `Del ]))) in
  qtest ~count:300 "agrees with Map (random insert/remove interleavings)" gen
    (fun ops ->
      let t = T.create ~degree:4 () in
      let final =
        List.fold_left
          (fun model (k, op) ->
            match op with
            | `Add ->
                ignore (T.insert t k (k * 3));
                Model.add k (k * 3) model
            | `Del ->
                ignore (T.remove t k);
                Model.remove k model)
          Model.empty ops
      in
      T.check_invariants t;
      T.length t = Model.cardinal final
      && List.equal
           (fun (k1, v1) (k2, v2) -> k1 = k2 && v1 = v2)
           (T.to_list t) (Model.bindings final))

let qcheck_range_matches_map =
  let gen =
    QCheck.(triple (list (int_bound 100)) (int_bound 100) (int_bound 100))
  in
  qtest "iter_range agrees with Map filtering" gen (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let t = T.create ~degree:4 () in
      let model =
        List.fold_left
          (fun m k ->
            ignore (T.insert t k (k * 2));
            Model.add k (k * 2) m)
          Model.empty keys
      in
      let got = ref [] in
      T.iter_range ~lo ~hi (fun k v -> got := (k, v) :: !got) t;
      let expected =
        List.filter (fun (k, _) -> k >= lo && k <= hi) (Model.bindings model)
      in
      List.rev !got = expected)

let suite =
  [
    test "empty tree" test_empty;
    test "insert and find across splits" test_insert_find;
    test "replace returns previous binding" test_replace;
    test "iteration is in key order" test_ordered_iteration;
    test "range scans" test_range;
    test "remove, drain, reuse" test_remove;
    test "update" test_update;
    test "height stays logarithmic" test_height_logarithmic;
    test "probe visits bounded by height" test_node_visits_logarithmic;
    qcheck_against_map_model;
    qcheck_range_matches_map;
  ]
