(* The view fold against a reference: aggregate state kept by a plain
   fold through [Aggregate.step]/[Aggregate.unstep], group by group, in
   the order the view folds — plus half then minus half, MIN/MAX groups
   that lose their extremum refolded from the re-probe source.  Views
   are compared through [View.dump] and the [Aggregate.put_state] bytes
   of every group, so any divergence in a state's representation (an
   INT sum turned FLOAT, a −0.0 turned 0.0, an empty SUM turned 0)
   shows, not just a different final value. *)

open Relational
open Chronicle_core
open Util

let schema =
  Schema.make [ ("k", Value.TInt); ("i", Value.TInt); ("f", Value.TFloat) ]

let chron () = Chron.create ~group:(Group.create "g") ~name:"c" schema

(* ---- reference fold ---- *)

type rgroup = { rkey : Value.t; rmult : int; rstates : Aggregate.state array }

let arg_of (pos : int option array) i tu =
  match pos.(i) with None -> Value.Int 1 | Some p -> Tuple.get tu p

let ref_step calls pos g tu =
  {
    g with
    rmult = g.rmult + 1;
    rstates =
      Array.mapi
        (fun i st -> Aggregate.step (List.nth calls i).Aggregate.func st (arg_of pos i tu))
        g.rstates;
  }

let ref_fresh calls key =
  {
    rkey = key;
    rmult = 0;
    rstates = Array.of_list (List.map (fun (c : Aggregate.call) -> Aggregate.init c.func) calls);
  }

(* One delta into the reference groups (insertion-ordered); [base] is
   the body's multiset after the delta, the re-probe source. *)
let ref_apply calls pos ~key_pos groups ~plus ~minus ~base =
  let key tu = Tuple.get tu key_pos in
  let find groups k = List.find_opt (fun g -> Value.equal g.rkey k) groups in
  let replace groups g =
    List.map (fun g' -> if Value.equal g'.rkey g.rkey then g else g') groups
  in
  let groups =
    List.fold_left
      (fun groups tu ->
        match find groups (key tu) with
        | Some g -> replace groups (ref_step calls pos g tu)
        | None -> groups @ [ ref_step calls pos (ref_fresh calls (key tu)) tu ])
      groups plus
  in
  let groups, marked =
    List.fold_left
      (fun (groups, marked) tu ->
        let k = key tu in
        if List.exists (Value.equal k) marked then (groups, marked)
        else
          let g = Option.get (find groups k) in
          let inv =
            Array.mapi
              (fun i st ->
                Aggregate.unstep (List.nth calls i).Aggregate.func st (arg_of pos i tu))
              g.rstates
          in
          if Array.exists (function Aggregate.Reprobe -> true | _ -> false) inv then
            (groups, marked @ [ k ])
          else
            let states =
              Array.map (function Aggregate.Inverted st -> st | Aggregate.Reprobe -> assert false) inv
            in
            let g = { g with rmult = g.rmult - 1; rstates = states } in
            if g.rmult = 0 then (List.filter (fun g' -> not (Value.equal g'.rkey k)) groups, marked)
            else (replace groups g, marked))
      (groups, []) minus
  in
  let groups =
    List.map
      (fun g ->
        if List.exists (Value.equal g.rkey) marked then
          List.fold_left
            (fun g tu -> if Value.equal (key tu) g.rkey then ref_step calls pos g tu else g)
            (ref_fresh calls g.rkey) base
        else g)
      groups
  in
  List.filter (fun g -> g.rmult > 0) groups

let group_bytes key mult states =
  let b = Buffer.create 32 in
  Codec.put_list Codec.put_value b key;
  Codec.put_int b mult;
  List.iter (Aggregate.put_state b) states;
  Buffer.contents b

let view_bytes view =
  match View.dump view with
  | View.Groups_dump groups -> List.map (fun (k, m, sts) -> group_bytes k m sts) groups
  | View.Rows_dump _ -> Alcotest.fail "expected a grouped view"

let ref_bytes ~ordered groups =
  let groups =
    if ordered then List.sort (fun a b -> Value.compare a.rkey b.rkey) groups else groups
  in
  List.map (fun g -> group_bytes [ g.rkey ] g.rmult (Array.to_list g.rstates)) groups

(* ---- scenarios ---- *)

type mode = Bare | Commit | Rollback

type scenario = {
  calls : (Aggregate.func * string option) list;
  ordered : bool;
  steps : (mode * (Tuple.t list * int list) list) list;
      (** each transaction's deltas: plus rows, and picks into the
          live multiset for the minus half *)
}

let gen_value_i = QCheck.Gen.(frequency [ (1, return Value.Null); (5, map vi (-5 -- 5)) ])

let floats = [| -0.; 0.; 1.5; -2.25; 0.1; 1e16; 3.; -0.5 |]

let gen_value_f =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        (2, return (vf (-0.)));
        (5, map (fun i -> vf floats.(i)) (0 -- (Array.length floats - 1)));
      ])

let gen_row = QCheck.Gen.(map3 (fun k i f -> tup [ vi k; i; f ]) (0 -- 3) gen_value_i gen_value_f)

let gen_call =
  QCheck.Gen.(
    map2
      (fun func col ->
        match func with
        | Aggregate.Count when col = 2 -> (Aggregate.Count, None)
        | func -> (func, Some (if col = 0 then "i" else "f")))
      (oneofl Aggregate.[ Count; Sum; Min; Max; Avg; Var; Stddev ])
      (0 -- 2))

let gen_scenario =
  QCheck.Gen.(
    let gen_delta = pair (list_size (0 -- 5) gen_row) (list_size (0 -- 4) (0 -- 1000)) in
    map3
      (fun calls ordered steps -> { calls; ordered; steps })
      (list_size (1 -- 4) gen_call) bool
      (list_size (1 -- 12)
         (pair (frequency [ (2, return Bare); (2, return Commit); (1, return Rollback) ])
            (list_size (1 -- 3) gen_delta))))

let print_scenario s =
  let call (f, a) = Aggregate.func_name f ^ "(" ^ Option.value ~default:"*" a ^ ")" in
  let mode = function Bare -> "bare" | Commit -> "commit" | Rollback -> "rollback" in
  Printf.sprintf "%s%s: %s"
    (String.concat "," (List.map call s.calls))
    (if s.ordered then " ordered" else "")
    (String.concat "; "
       (List.map
          (fun (m, ds) ->
            mode m ^ " "
            ^ String.concat " | "
                (List.map
                   (fun (plus, picks) ->
                     String.concat "," (List.map (Format.asprintf "%a" Tuple.pp) plus)
                     ^ " - "
                     ^ String.concat "," (List.map string_of_int picks))
                   ds))
          s.steps))

let scenario_arb = QCheck.make ~print:print_scenario gen_scenario

(* Remove one occurrence of each pick from [live] (picks index the
   multiset as it shrinks). *)
let take_picks live picks =
  List.fold_left
    (fun (live, taken) p ->
      match live with
      | [] -> (live, taken)
      | _ ->
          let i = p mod List.length live in
          (List.filteri (fun j _ -> j <> i) live, taken @ [ List.nth live i ]))
    (live, []) picks

let prop_cells_match_reference s =
  let c = chron () in
  let calls =
    List.mapi
      (fun i (func, arg) -> { Aggregate.func; arg; alias = Printf.sprintf "a%d" i })
      s.calls
  in
  let def = Sca.define ~name:"v" ~body:(Ca.Chronicle c) (Sca.Group_agg ([ "k" ], calls)) in
  let view =
    View.create ~index:(if s.ordered then Index.Ordered else Index.Hash) def
  in
  let body = Chron.schema c in
  let pos =
    Array.of_list (List.map (fun (c : Aggregate.call) -> Option.map (Schema.pos body) c.arg) calls)
  in
  let key_pos = Schema.pos body "k" in
  let sn = ref 0 in
  let live = ref [] and groups = ref [] in
  List.iter
    (fun (mode, deltas) ->
      let live0 = !live and groups0 = !groups in
      if mode <> Bare then View.begin_txn view;
      List.iter
        (fun (rows, picks) ->
          incr sn;
          let plus = List.map (Chron.tag !sn) rows in
          let base, minus = take_picks (!live @ plus) picks in
          View.apply ~reprobe:(fun _ -> base) view (Delta.of_zset { Delta.plus; minus });
          groups := ref_apply calls pos ~key_pos !groups ~plus ~minus ~base;
          live := base)
        deltas;
      (match mode with
      | Bare -> ()
      | Commit -> View.commit_txn view
      | Rollback ->
          View.rollback_txn view;
          live := live0;
          groups := groups0);
      if view_bytes view <> ref_bytes ~ordered:s.ordered !groups then
        QCheck.Test.fail_reportf "view state diverges from the reference fold")
    s.steps;
  true

(* ---- transactions ---- *)

let txn_view ~ordered =
  let c = chron () in
  let calls =
    Aggregate.[ sum "i" "s"; min_ "f" "lo"; avg "f" "a"; count_star "n"; var_ "i" "v" ]
  in
  let def = Sca.define ~name:"v" ~body:(Ca.Chronicle c) (Sca.Group_agg ([ "k" ], calls)) in
  View.create ~index:(if ordered then Index.Ordered else Index.Hash) def

let row sn k i f = Chron.tag sn (tup [ vi k; vi i; vf f ])

(* The body's multiset, kept beside the view as the re-probe source. *)
let live = ref []

let fold view plus minus =
  let rec drop tu = function
    | [] -> Alcotest.fail "retracting an absent row"
    | x :: rest -> if Tuple.equal x tu then rest else x :: drop tu rest
  in
  let base = List.fold_left (fun base tu -> drop tu base) (!live @ plus) minus in
  live := base;
  View.apply ~reprobe:(fun _ -> base) view (Delta.of_zset { Delta.plus; minus })

let both_backings f () = List.iter (fun ordered -> f ~ordered) [ false; true ]

(* A commits, B re-touches A's groups (and creates and removes some)
   and rolls back: the view is A's, to the byte.  B's stamp differs
   from A's, so B saves each group before stepping it although A
   touched it last. *)
let test_commit_then_rollback ~ordered =
  live := [];
  let view = txn_view ~ordered in
  fold view [ row 1 1 1 1.5; row 1 2 2 2.5 ] [];
  View.begin_txn view;
  fold view [ row 2 1 3 (-0.); row 2 3 4 4. ] [];
  fold view [ row 3 2 5 0.5 ] [ row 1 1 1 1.5 ];
  View.commit_txn view;
  let after_a = view_bytes view and live_a = !live in
  View.begin_txn view;
  fold view [ row 4 1 7 7.; row 4 2 8 0.25; row 4 4 9 9. ] [];
  fold view [ row 5 3 1 1. ] [ row 2 3 4 4.; row 4 4 9 9. ];
  fold view [] [ row 2 1 3 (-0.) ];
  View.rollback_txn view;
  live := live_a;
  check_bool "rolled back to A" true (view_bytes view = after_a);
  check_int "groups" 3 (View.size view)

(* A group whose last row is retracted is removed; a plus in the same
   transaction re-creates it (a new entry, at the end of a hash
   backing's order).  Rolling back drops the new entry and puts the
   old one back in its place, with its pre-transaction state. *)
let test_remove_readd_rollback ~ordered =
  live := [];
  let view = txn_view ~ordered in
  fold view [ row 1 1 1 1.; row 1 2 2 2.; row 1 3 3 3. ] [];
  let before = view_bytes view and live0 = !live in
  View.begin_txn view;
  fold view [] [ row 1 2 2 2. ];
  check_int "removed" 2 (View.size view);
  fold view [ row 2 2 20 20.; row 2 1 10 10. ] [];
  check_int "re-added" 3 (View.size view);
  View.rollback_txn view;
  live := live0;
  check_bool "old entry back, in its place" true (view_bytes view = before);
  (* the restored entry is live: folding into it works as before *)
  fold view [ row 3 2 5 5. ] [];
  check_bool "restored group steps" true
    (View.lookup view [ vi 2 ] <> None && View.multiplicity view [ vi 2 ] = 2)

let test_rows_remove_readd_rollback () =
  let c = chron () in
  let def = Sca.define ~name:"p" ~body:(Ca.Chronicle c) (Sca.Project_out [ "k"; "i" ]) in
  let view = View.create def in
  live := [];
  let r k i = Chron.tag 1 (tup [ vi k; vi i; vf 0. ]) in
  fold view [ r 1 1; r 2 2; r 2 2; r 3 3 ] [];
  let before = View.dump view in
  View.begin_txn view;
  fold view [ r 1 1 ] [ r 2 2; r 2 2; r 3 3 ];
  fold view [ r 3 3 ] [];
  View.rollback_txn view;
  check_bool "rows restored with multiplicities" true (View.dump view = before)

(* A retraction's minus half streams through a key-join stage (heavy
   keys served from the partition's cache, light ones probed) into
   invertible and MIN/MAX (re-probed) views; jobs 1/2/4 save the same
   bytes, and the views equal a batch evaluation of the survivors. *)
let keyjoin_db jobs =
  let db = Db.create ~jobs ~heavy_threshold:2 () in
  ignore (Db.add_chronicle db ~retention:Chron.Full ~name:"mileage" Fixtures.mileage_schema);
  let cust =
    Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema ~key:[ "cust" ] ()
  in
  List.iter (Versioned.insert cust)
    [ tup [ vi 1; vs "NJ" ]; tup [ vi 2; vs "NY" ]; tup [ vi 3; vs "NJ" ]; tup [ vi 4; vs "CA" ] ];
  let joined =
    Ca.KeyJoinRel (Ca.Chronicle (Db.chronicle db "mileage"), Versioned.relation cust, [ ("acct", "cust") ])
  in
  let define name body summ = ignore (Db.define_view db (Sca.define ~name ~body summ)) in
  define "by_state" joined
    (Sca.Group_agg ([ "state" ], Aggregate.[ sum "miles" "m"; count_star "n"; avg "fare" "f" ]));
  define "extremes" joined
    (Sca.Group_agg ([ "state" ], Aggregate.[ min_ "miles" "lo"; max_ "fare" "hi" ]));
  define "states" joined (Sca.Project_out [ "state" ]);
  define "far" (Ca.Select (Predicate.("miles" >% vi 20), joined))
    (Sca.Group_agg ([ "acct" ], Aggregate.[ sum "fare" "s"; min_ "miles" "lo" ]));
  db

let keyjoin_script db =
  let rows = List.init 40 (fun i -> Fixtures.mile ((i * 7 mod 5) + 1) ((i * 13 mod 50) + 1) (float_of_int (i mod 9) -. 4.)) in
  List.iter (fun chunk -> if chunk <> [] then ignore (Db.append db "mileage" chunk))
    (List.init 8 (fun b -> List.filteri (fun i _ -> i / 5 = b) rows));
  let dropped = List.filteri (fun i _ -> i mod 3 = 1) rows in
  List.iter (fun r -> ignore (Db.retract db "mileage" [ r ])) (List.filteri (fun i _ -> i mod 2 = 0) dropped);
  ignore (Db.retract db "mileage" (List.filteri (fun i _ -> i mod 2 = 1) dropped))

let test_keyjoin_minus_jobs () =
  let save jobs =
    let db = keyjoin_db jobs in
    let s0 = Stats.snapshot () in
    keyjoin_script db;
    let s1 = Stats.snapshot () in
    check_bool "retractions applied" true (Stats.diff_get s0 s1 Stats.Retract_apply > 0);
    check_bool "heavy keys served from cache" true (Stats.diff_get s0 s1 Stats.Heavy_probe > 0);
    List.iter
      (fun name ->
        let def = View.def (Db.view db name) in
        check_tuples (name ^ " = batch over survivors")
          (Sca.eval_summarize def (Eval.eval (Sca.body def)))
          (Db.view_contents db name))
      [ "by_state"; "extremes"; "states"; "far" ];
    Snapshot.save db
  in
  let one = save 1 in
  List.iter (fun jobs -> check_bool (Printf.sprintf "jobs %d bytes" jobs) true (save jobs = one)) [ 2; 4 ]

(* ---- allocation budget ----

   Folding into existing groups allocates nothing per tuple on a hash
   backing: the key is hashed from a buffer, cells are stepped in
   place.  What remains is the stream's per-run closures and, through a
   key join, the probe key and the joined tuple.  Budgets are the
   measured words per folded tuple plus slack (native code only:
   bytecode boxes floats the native compiler keeps unboxed). *)
let minor_words_per_tuple view batch ~sn =
  let plan = View.plan view in
  let change = Delta.appended batch in
  let fold () = View.apply view (Delta.stream plan ~sn change) in
  fold ();
  let tuples = List.fold_left (fun n (_, tus) -> n + List.length tus) 0 batch in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    fold ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int (10 * tuples)

let test_allocation_budget () =
  if Sys.backend_type = Sys.Native then begin
    let fx = Fixtures.make () in
    let sn = 1 in
    let batch =
      [
        ( fx.Fixtures.mileage,
          List.init 64 (fun i -> Chron.tag sn (Fixtures.mile ((i mod 4) + 1) i (float_of_int i))) );
      ]
    in
    let sum_view = View.create (Fixtures.balance_def fx) in
    let join_view =
      View.create
        (Sca.define ~name:"by_state" ~body:(Fixtures.keyjoin_body fx)
           (Sca.Group_agg ([ "state" ], Aggregate.[ sum "fare" "f"; count_star "n" ])))
    in
    let sum_words = minor_words_per_tuple sum_view batch ~sn in
    let join_words = minor_words_per_tuple join_view batch ~sn in
    Printf.printf "minor words per folded tuple: SUM-by-key %.2f, key join %.2f\n" sum_words
      join_words;
    if sum_words > 1.0 then Alcotest.failf "SUM-by-key fold: %.2f words/tuple > 1.0" sum_words;
    if join_words > 12.0 then Alcotest.failf "key-join fold: %.2f words/tuple > 12.0" join_words
  end

let suite =
  [
    qtest ~count:400 "cells ≡ Aggregate.step/unstep reference (random ±, rollbacks)"
      scenario_arb prop_cells_match_reference;
    test "txn A commits, B re-touches and rolls back: A's state"
      (both_backings test_commit_then_rollback);
    test "group removed and re-added in one txn, rolled back"
      (both_backings test_remove_readd_rollback);
    test "rows removed and re-added in one txn, rolled back" test_rows_remove_readd_rollback;
    test "minus fold through the key-join stage: jobs 1/2/4 save the same bytes"
      test_keyjoin_minus_jobs;
    test "allocation budget: folding into existing groups" test_allocation_budget;
  ]
