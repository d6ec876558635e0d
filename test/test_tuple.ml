open Relational
open Util

let s = Schema.make [ ("a", Value.TInt); ("b", Value.TStr); ("c", Value.TFloat) ]
let t1 = tup [ vi 1; vs "x"; vf 2.5 ]

let test_access () =
  check_int "arity" 3 (Tuple.arity t1);
  check_value "get" (vs "x") (Tuple.get t1 1);
  check_value "field" (vf 2.5) (Tuple.field s t1 "c")

let test_project () =
  check_tuple "project" (tup [ vf 2.5; vi 1 ]) (Tuple.project s [ "c"; "a" ] t1);
  let proj = Tuple.projector s [ "b" ] in
  check_tuple "projector" (tup [ vs "x" ]) (proj t1)

let test_concat_remove () =
  check_tuple "concat" (tup [ vi 1; vs "x"; vf 2.5; vi 9 ])
    (Tuple.concat t1 (tup [ vi 9 ]));
  check_tuple "remove" (tup [ vi 1; vf 2.5 ]) (Tuple.remove s "b" t1)

let test_type_check () =
  check_bool "ok" true (Tuple.type_check s t1);
  check_bool "null ok" true (Tuple.type_check s (tup [ Value.Null; vs "x"; vf 1. ]));
  check_bool "wrong type" false (Tuple.type_check s (tup [ vs "no"; vs "x"; vf 1. ]));
  check_bool "wrong arity" false (Tuple.type_check s (tup [ vi 1 ]))

let test_compare () =
  check_bool "lex order" true (Tuple.compare (tup [ vi 1; vi 2 ]) (tup [ vi 1; vi 3 ]) < 0);
  check_bool "prefix shorter" true (Tuple.compare (tup [ vi 1 ]) (tup [ vi 1; vi 0 ]) < 0);
  check_bool "equal" true (Tuple.equal t1 (tup [ vi 1; vs "x"; vf 2.5 ]))

let test_dedup_diff () =
  let a = tup [ vi 1 ] and b = tup [ vi 2 ] and c = tup [ vi 3 ] in
  check_tuples "dedup" [ a; b ] (Tuple.dedup [ a; b; a; b; a ]);
  check_tuples "diff" [ a; c ] (Tuple.diff [ a; b; c; a ] [ b ]);
  check_tuples "diff all" [] (Tuple.diff [ a ] [ a ]);
  check_tuples "diff empty right" [ a; b ] (Tuple.diff [ a; b ] [])

let qcheck_dedup_idempotent =
  let gen = QCheck.(list (map (fun i -> tup [ vi (i mod 5) ]) small_int)) in
  qtest "dedup is idempotent and subset-preserving" gen (fun l ->
      let d = Tuple.dedup l in
      List.equal Tuple.equal d (Tuple.dedup d)
      && List.for_all (fun t -> List.exists (Tuple.equal t) l) d
      && List.for_all (fun t -> List.exists (Tuple.equal t) d) l)

(* Equal tuples hash equal, an INT and a FLOAT holding it included;
   [hash_list] is [hash] of the tuple a list makes. *)
let qcheck_hash_consistent =
  let value =
    QCheck.(
      oneof
        [
          map vi (int_range (-3) 3);
          map (fun i -> vf (float_of_int i)) (int_range (-3) 3);
          map vf (oneofl [ 0.5; -0.; nan ]);
          map vs (oneofl [ "a"; "b" ]);
          always Value.Null;
        ])
  in
  qtest "hash agrees with equal (INT and FLOAT alike)"
    QCheck.(pair (list_of_size Gen.(0 -- 3) value) (list_of_size Gen.(0 -- 3) value))
    (fun (a, b) ->
      let ta = tup a and tb = tup b in
      ((not (Tuple.equal ta tb)) || Tuple.hash ta = Tuple.hash tb)
      && Tuple.hash_list a = Tuple.hash ta)

let suite =
  [
    test "access" test_access;
    test "projection" test_project;
    test "concat/remove" test_concat_remove;
    test "type check" test_type_check;
    test "lexicographic compare" test_compare;
    test "dedup and set difference" test_dedup_diff;
    qcheck_dedup_idempotent;
    qcheck_hash_consistent;
  ]
