(* Shared helpers for the test suites. *)

open Relational

let vi i = Value.Int i
let vf f = Value.Float f
let vs s = Value.Str s
let vb b = Value.Bool b

let tup l = Tuple.make l

let value_testable = Alcotest.testable Value.pp Value.equal
let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal

let sorted_tuples l = List.sort Tuple.compare l

(* Order-insensitive multiset comparison of tuple collections. *)
let tuples_testable =
  Alcotest.testable
    (fun ppf l ->
      Format.fprintf ppf "@[<v>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut Tuple.pp)
        l)
    (fun a b ->
      List.equal Tuple.equal (sorted_tuples a) (sorted_tuples b))

let check_tuples = Alcotest.check tuples_testable
let check_tuple = Alcotest.check tuple_testable
let check_value = Alcotest.check value_testable
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let check_float msg expected actual =
  Alcotest.check (Alcotest.float 1e-9) msg expected actual

let test name f = Alcotest.test_case name `Quick f

(* Lower-case hex of a byte string, for pinning encodings. *)
let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* [contains s needle]: [needle] occurs in [s]. *)
let contains s needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
  go 0

let check_raises_any msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception" msg
  | exception _ -> ()

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
