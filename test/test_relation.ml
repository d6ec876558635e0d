open Relational
open Util

let schema =
  Schema.make
    [ ("id", Value.TInt); ("name", Value.TStr); ("score", Value.TFloat) ]

let mk ?key () = Relation.create ~name:"people" ~schema ?key ()

let row id name score = tup [ vi id; vs name; vf score ]

let test_insert_get () =
  let r = mk () in
  let rid = Relation.insert r (row 1 "ann" 3.5) in
  check_bool "get" true (Relation.get r rid = Some (row 1 "ann" 3.5));
  check_int "cardinality" 1 (Relation.cardinality r);
  check_bool "dead row id" true (Relation.get r 999 = None)

let test_type_check () =
  let r = mk () in
  check_raises_any "bad tuple" (fun () -> Relation.insert r (tup [ vs "x" ]))

let test_key_enforced () =
  let r = mk ~key:[ "id" ] () in
  ignore (Relation.insert r (row 1 "ann" 1.));
  check_raises_any "duplicate key" (fun () -> Relation.insert r (row 1 "bob" 2.));
  ignore (Relation.insert r (row 2 "bob" 2.));
  check_bool "find_by_key" true
    (Relation.find_by_key r [ vi 2 ] = Some (row 2 "bob" 2.));
  check_bool "find_by_key miss" true (Relation.find_by_key r [ vi 9 ] = None)

let test_delete () =
  let r = mk ~key:[ "id" ] () in
  let rid = Relation.insert r (row 1 "ann" 1.) in
  check_bool "delete returns tuple" true (Relation.delete r rid = Some (row 1 "ann" 1.));
  check_bool "second delete" true (Relation.delete r rid = None);
  check_int "cardinality" 0 (Relation.cardinality r);
  (* key is free again *)
  ignore (Relation.insert r (row 1 "ann2" 1.))

let test_update () =
  let r = mk ~key:[ "id" ] () in
  let rid = Relation.insert r (row 1 "ann" 1.) in
  Relation.update r rid (row 1 "ann" 9.);
  check_bool "updated" true (Relation.get r rid = Some (row 1 "ann" 9.));
  ignore (Relation.insert r (row 2 "bob" 2.));
  check_raises_any "key-changing update into collision" (fun () ->
      Relation.update r rid (row 2 "ann" 9.));
  Relation.update r rid (row 3 "ann" 9.);
  check_bool "key move ok" true (Relation.find_by_key r [ vi 3 ] <> None);
  check_bool "old key gone" true (Relation.find_by_key r [ vi 1 ] = None)

let test_delete_where () =
  let r = mk () in
  Relation.insert_all r [ row 1 "a" 1.; row 2 "b" 5.; row 3 "c" 9. ];
  check_int "deleted" 2 (Relation.delete_where r Predicate.("score" >% vf 2.));
  check_int "remaining" 1 (Relation.cardinality r)

let test_secondary_index_lookup () =
  let r = mk ~key:[ "id" ] () in
  Relation.insert_all r [ row 1 "ann" 1.; row 2 "ann" 2.; row 3 "bob" 3. ];
  (* without an index: scan fallback, correct *)
  check_tuples "scan lookup" [ row 1 "ann" 1.; row 2 "ann" 2. ]
    (Relation.lookup r ~attrs:[ "name" ] [ vs "ann" ]);
  Relation.create_index r Index.Hash [ "name" ];
  check_bool "has_index" true (Relation.has_index r [ "name" ]);
  (* with the index: same answer *)
  check_tuples "indexed lookup" [ row 1 "ann" 1.; row 2 "ann" 2. ]
    (Relation.lookup r ~attrs:[ "name" ] [ vs "ann" ]);
  (* index maintained across delete *)
  ignore (Relation.delete_where r Predicate.("id" =% vi 1));
  check_tuples "after delete" [ row 2 "ann" 2. ]
    (Relation.lookup r ~attrs:[ "name" ] [ vs "ann" ])

let test_index_avoids_scan () =
  let r = mk ~key:[ "id" ] () in
  for i = 1 to 500 do
    ignore (Relation.insert r (row i "n" 0.))
  done;
  let before = Stats.snapshot () in
  ignore (Relation.find_by_key r [ vi 250 ]);
  let after = Stats.snapshot () in
  check_bool "point lookup reads O(1) tuples" true
    (Stats.diff_get before after Stats.Tuple_read <= 2);
  check_int "one probe" 1 (Stats.diff_get before after Stats.Index_probe)

let test_version_counter () =
  let r = mk () in
  let v0 = Relation.version r in
  let rid = Relation.insert r (row 1 "a" 1.) in
  check_bool "insert bumps" true (Relation.version r > v0);
  let v1 = Relation.version r in
  Relation.update r rid (row 1 "a" 2.);
  check_bool "update bumps" true (Relation.version r > v1);
  let v2 = Relation.version r in
  ignore (Relation.delete r rid);
  check_bool "delete bumps" true (Relation.version r > v2)

let test_iter_skips_tombstones () =
  let r = mk () in
  let rid = Relation.insert r (row 1 "a" 1.) in
  ignore (Relation.insert r (row 2 "b" 2.));
  ignore (Relation.delete r rid);
  check_tuples "to_list" [ row 2 "b" 2. ] (Relation.to_list r)

let suite =
  [
    test "insert and get" test_insert_get;
    test "schema type check" test_type_check;
    test "primary key uniqueness" test_key_enforced;
    test "delete and key release" test_delete;
    test "update incl. key moves" test_update;
    test "delete_where" test_delete_where;
    test "secondary index lookup" test_secondary_index_lookup;
    test "indexed lookup avoids scans" test_index_avoids_scan;
    test "version counter" test_version_counter;
    test "iteration skips tombstones" test_iter_skips_tombstones;
  ]
