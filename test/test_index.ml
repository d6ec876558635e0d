open Relational
open Util

let exercise kind =
  let ix = Index.create kind ~attrs:[ "k" ] in
  Index.add ix [ vi 1 ] 10;
  Index.add ix [ vi 1 ] 11;
  Index.add ix [ vi 2 ] 20;
  Alcotest.check
    Alcotest.(list int)
    "multi-map find" [ 10; 11 ]
    (List.sort Int.compare (Index.find ix [ vi 1 ]));
  Alcotest.check Alcotest.(list int) "other key" [ 20 ] (Index.find ix [ vi 2 ]);
  Alcotest.check Alcotest.(list int) "absent" [] (Index.find ix [ vi 9 ]);
  check_int "cardinality" 2 (Index.cardinality ix);
  Index.remove ix [ vi 1 ] 10;
  Alcotest.check Alcotest.(list int) "after remove" [ 11 ] (Index.find ix [ vi 1 ]);
  Index.remove ix [ vi 1 ] 11;
  Alcotest.check Alcotest.(list int) "key drained" [] (Index.find ix [ vi 1 ]);
  check_int "cardinality after drain" 1 (Index.cardinality ix);
  Index.remove ix [ vi 9 ] 0 (* no-op *)

let test_hash () = exercise Index.Hash
let test_ordered () = exercise Index.Ordered

let test_range_ordered () =
  let ix = Index.create Index.Ordered ~attrs:[ "k" ] in
  for i = 0 to 9 do
    Index.add ix [ vi i ] i
  done;
  Alcotest.check
    Alcotest.(list int)
    "range" [ 3; 4; 5 ]
    (List.sort Int.compare
       (Index.find_range ix ~lo:(Some [ vi 3 ]) ~hi:(Some [ vi 5 ])));
  check_int "unbounded range" 10 (List.length (Index.find_range ix ~lo:None ~hi:None))

let test_range_hash_rejected () =
  let ix = Index.create Index.Hash ~attrs:[ "k" ] in
  check_raises_any "hash has no order" (fun () ->
      Index.find_range ix ~lo:None ~hi:None)

let test_composite_keys () =
  let ix = Index.create Index.Hash ~attrs:[ "a"; "b" ] in
  Index.add ix [ vi 1; vs "x" ] 1;
  Index.add ix [ vi 1; vs "y" ] 2;
  Alcotest.check Alcotest.(list int) "composite" [ 1 ] (Index.find ix [ vi 1; vs "x" ]);
  check_int "two distinct keys" 2 (Index.cardinality ix)

let test_find_order_is_scan_order () =
  (* per-key runs are ascending even when rows arrive out of order
     (deletion + re-probe path of the relation layer) *)
  List.iter
    (fun kind ->
      let ix = Index.create kind ~attrs:[ "k" ] in
      List.iter (fun r -> Index.add ix [ vi 1 ] r) [ 9; 3; 7; 1; 5 ];
      Alcotest.check Alcotest.(list int) "ascending" [ 1; 3; 5; 7; 9 ]
        (Index.find ix [ vi 1 ]))
    [ Index.Hash; Index.Ordered ]

let test_probe_counting () =
  let ix = Index.create Index.Hash ~attrs:[ "k" ] in
  Index.add ix [ vi 1 ] 1;
  let before = Stats.snapshot () in
  ignore (Index.find ix [ vi 1 ]);
  ignore (Index.find ix [ vi 2 ]);
  let after = Stats.snapshot () in
  check_int "two probes counted" 2 (Stats.diff_get before after Stats.Index_probe)

let suite =
  [
    test "hash index" test_hash;
    test "ordered index" test_ordered;
    test "ordered range scan" test_range_ordered;
    test "hash range rejected" test_range_hash_rejected;
    test "composite keys" test_composite_keys;
    test "probe counting" test_probe_counting;
    test "find answers in scan order" test_find_order_is_scan_order;
  ]
