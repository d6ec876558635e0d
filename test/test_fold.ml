(* The aggregate kernel against a reference it does not share: a boxed
   functional fold, one immutable state per call, kept here as the
   oracle.

   - The view fold: reference groups are stepped and unstepped through
     [Boxed.step]/[Boxed.unstep], group by group, in the order the view
     folds — plus half then minus half, MIN/MAX groups that lose their
     extremum refolded from the re-probe source.  Views are compared
     through [View.dump] and the state bytes of every group, so any
     divergence in a state's representation (an INT sum turned FLOAT, a
     −0.0 turned 0.0, an empty SUM turned 0) shows, not just a
     different final value.
   - GROUPBY and the cells directly: [Groupby.run] rows, the cells'
     [Aggregate.put_cells] bytes and [Aggregate.merge_cells] against
     the boxed fold's final values, [put_state] bytes and merge. *)

open Relational
open Chronicle_core
open Util

let schema =
  Schema.make [ ("k", Value.TInt); ("i", Value.TInt); ("f", Value.TFloat) ]

let chron () = Chron.create ~group:(Group.create "g") ~name:"c" schema

(* ---- the boxed fold ---- *)

module Boxed = struct
  type state =
    | Count_st of int
    | Sum_st of Value.t option (* None = empty group *)
    | Minmax_st of Value.t option
    | Avg_st of float * int (* running sum, count of non-null *)
    | Moments_st of { n : int; sum : float; sumsq : float }

  let init = function
    | Aggregate.Count -> Count_st 0
    | Sum -> Sum_st None
    | Min | Max -> Minmax_st None
    | Avg -> Avg_st (0., 0)
    | Var | Stddev -> Moments_st { n = 0; sum = 0.; sumsq = 0. }

  let pick func v a =
    match func with
    | Aggregate.Min -> if Value.compare v a < 0 then v else a
    | _ -> if Value.compare v a > 0 then v else a

  let step func st v =
    if Value.is_null v then st
    else
      match st with
      | Count_st n -> Count_st (n + 1)
      | Sum_st acc -> Sum_st (Some (match acc with None -> v | Some a -> Value.add a v))
      | Minmax_st acc -> Minmax_st (Some (match acc with None -> v | Some a -> pick func v a))
      | Avg_st (s, n) -> Avg_st (s +. Value.to_float v, n + 1)
      | Moments_st { n; sum; sumsq } ->
          let x = Value.to_float v in
          Moments_st { n = n + 1; sum = sum +. x; sumsq = sumsq +. (x *. x) }

  (* [None]: no inverse, the group must be refolded. *)
  let unstep func st v =
    if Value.is_null v then Some st
    else
      match st with
      | Count_st n -> Some (Count_st (n - 1))
      | Sum_st None | Minmax_st None -> None
      | Sum_st (Some a) -> Some (Sum_st (Some (Value.sub a v)))
      | Minmax_st (Some a) ->
          let c = Value.compare v a in
          if (func = Aggregate.Min && c > 0) || (func = Aggregate.Max && c < 0) then Some st
          else None
      | Avg_st (_, n) when n <= 0 -> None
      | Avg_st (_, 1) -> Some (Avg_st (0., 0))
      | Avg_st (s, n) -> Some (Avg_st (s -. Value.to_float v, n - 1))
      | Moments_st { n; _ } when n <= 0 -> None
      | Moments_st { n = 1; _ } -> Some (Moments_st { n = 0; sum = 0.; sumsq = 0. })
      | Moments_st { n; sum; sumsq } ->
          let x = Value.to_float v in
          Some (Moments_st { n = n - 1; sum = sum -. x; sumsq = sumsq -. (x *. x) })

  let merge func a b =
    let opt f x y = match x, y with None, s | s, None -> s | Some x, Some y -> Some (f x y) in
    match a, b with
    | Count_st x, Count_st y -> Count_st (x + y)
    | Sum_st x, Sum_st y -> Sum_st (opt Value.add x y)
    | Minmax_st x, Minmax_st y ->
        let keep_x c = if func = Aggregate.Min then c <= 0 else c >= 0 in
        Minmax_st (opt (fun x y -> if keep_x (Value.compare x y) then x else y) x y)
    | Avg_st (s1, n1), Avg_st (s2, n2) -> Avg_st (s1 +. s2, n1 + n2)
    | Moments_st a, Moments_st b ->
        Moments_st { n = a.n + b.n; sum = a.sum +. b.sum; sumsq = a.sumsq +. b.sumsq }
    | _ -> invalid_arg "Boxed.merge"

  let final func = function
    | Count_st n -> Value.Int n
    | Sum_st acc | Minmax_st acc -> Option.value ~default:Value.Null acc
    | Avg_st (_, 0) | Moments_st { n = 0; _ } -> Value.Null
    | Avg_st (s, n) -> Value.Float (s /. float_of_int n)
    | Moments_st { n; sum; sumsq } ->
        let nf = float_of_int n in
        let mean = sum /. nf in
        let var = Float.max 0. ((sumsq /. nf) -. (mean *. mean)) in
        Value.Float (if func = Aggregate.Stddev then sqrt var else var)

  let put_state buf = function
    | Count_st n ->
        Buffer.add_char buf '\x00';
        Codec.put_int buf n
    | Sum_st v ->
        Buffer.add_char buf '\x01';
        Codec.put_option Codec.put_value buf v
    | Minmax_st v ->
        Buffer.add_char buf '\x02';
        Codec.put_option Codec.put_value buf v
    | Avg_st (s, n) ->
        Buffer.add_char buf '\x03';
        Codec.put_float buf s;
        Codec.put_int buf n
    | Moments_st { n; sum; sumsq } ->
        Buffer.add_char buf '\x04';
        Codec.put_int buf n;
        Codec.put_float buf sum;
        Codec.put_float buf sumsq
end

let funcs calls = Array.of_list (List.map (fun (c : Aggregate.call) -> c.func) calls)

let positions calls =
  Array.of_list (List.map (fun (c : Aggregate.call) -> Option.map (Schema.pos schema) c.arg) calls)

let arg_of (pos : int option array) i tu =
  match pos.(i) with None -> Value.Int 1 | Some p -> Tuple.get tu p

let boxed_fold calls tuples =
  let fs = funcs calls and pos = positions calls in
  List.fold_left
    (fun sts tu -> Array.mapi (fun i st -> Boxed.step fs.(i) st (arg_of pos i tu)) sts)
    (Array.map Boxed.init fs) tuples

let states_bytes states =
  Codec.encode (Codec.put_list Boxed.put_state) (Array.to_list states)

(* ---- reference fold ---- *)

type rgroup = { rkey : Value.t; rmult : int; rstates : Boxed.state array }

let ref_step calls pos g tu =
  let fs = funcs calls in
  {
    g with
    rmult = g.rmult + 1;
    rstates = Array.mapi (fun i st -> Boxed.step fs.(i) st (arg_of pos i tu)) g.rstates;
  }

let ref_fresh calls key = { rkey = key; rmult = 0; rstates = Array.map Boxed.init (funcs calls) }

(* One delta into the reference groups (insertion-ordered); [base] is
   the body's multiset after the delta, the re-probe source. *)
let ref_apply calls pos ~key_pos groups ~plus ~minus ~base =
  let fs = funcs calls in
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
          let inv = Array.mapi (fun i st -> Boxed.unstep fs.(i) st (arg_of pos i tu)) g.rstates in
          if Array.exists Option.is_none inv then (groups, marked @ [ k ])
          else
            let g = { g with rmult = g.rmult - 1; rstates = Array.map Option.get inv } in
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
  Codec.encode (Codec.put_list Codec.put_value) key
  ^ Codec.encode Codec.put_int mult
  ^ states

let view_bytes view =
  let layout = Sca.layout (View.def view) in
  match View.dump view with
  | View.Groups_dump groups ->
      List.map
        (fun (k, (c : Aggregate.cells)) ->
          group_bytes k c.weight (Codec.encode (Aggregate.put_cells layout) c))
        groups
  | View.Rows_dump _ -> Alcotest.fail "expected a grouped view"

let ref_bytes ~ordered groups =
  let groups =
    if ordered then List.sort (fun a b -> Value.compare a.rkey b.rkey) groups else groups
  in
  List.map (fun g -> group_bytes [ g.rkey ] g.rmult (states_bytes g.rstates)) groups

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

(* GROUPBY, the cells and their merge against the boxed fold, over
   rows with nulls, −0.0 and floats that round (0.1, 1e16). *)
let prop_boxed_differential (calls, rows, split) =
  let calls =
    List.mapi (fun i (func, arg) -> { Aggregate.func; arg; alias = Printf.sprintf "a%d" i }) calls
  in
  let layout = Aggregate.layout schema calls in
  let keys =
    List.fold_left
      (fun keys tu ->
        let k = Tuple.get tu 0 in
        if List.exists (Value.equal k) keys then keys else keys @ [ k ])
      [] rows
  in
  let members k = List.filter (fun tu -> Value.equal (Tuple.get tu 0) k) rows in
  let row_bytes rows = List.map (Codec.encode (Codec.put_list Codec.put_value)) rows in
  let cells_of tuples =
    let c = Aggregate.fresh layout in
    List.iter (Aggregate.step_cells layout c) tuples;
    c
  in
  let expected =
    List.map
      (fun k ->
        k :: Array.to_list (Array.map2 Boxed.final (funcs calls) (boxed_fold calls (members k))))
      keys
  in
  let _, out = Groupby.run schema rows ~group_by:[ "k" ] ~aggs:calls in
  if row_bytes (List.map Array.to_list out) <> row_bytes expected then
    QCheck.Test.fail_report "GROUPBY rows differ from the boxed fold";
  List.iter
    (fun k ->
      let tuples = members k in
      let left = List.filteri (fun i _ -> i < split mod (List.length tuples + 1)) tuples in
      let right = List.filteri (fun i _ -> i >= List.length left) tuples in
      let merged = cells_of left in
      Aggregate.merge_cells layout ~into:merged (cells_of right);
      let boxed_merged =
        Array.map2
          (fun func (a, b) -> Boxed.merge func a b)
          (funcs calls)
          (Array.map2 (fun a b -> (a, b)) (boxed_fold calls left) (boxed_fold calls right))
      in
      let bytes c = Codec.encode (Aggregate.put_cells layout) c in
      if bytes (cells_of tuples) <> states_bytes (boxed_fold calls tuples) then
        QCheck.Test.fail_reportf "cells of group %s differ from the boxed states"
          (Format.asprintf "%a" Value.pp k);
      if bytes merged <> states_bytes boxed_merged then
        QCheck.Test.fail_report "merged cells differ from the boxed merge")
    keys;
  true

let boxed_arb =
  QCheck.make
    ~print:(fun (calls, rows, split) ->
      Printf.sprintf "%s over %s, split %d"
        (String.concat ","
           (List.map (fun (f, a) -> Aggregate.func_name f ^ "(" ^ Option.value ~default:"*" a ^ ")") calls))
        (String.concat "," (List.map (Format.asprintf "%a" Tuple.pp) rows))
        split)
    QCheck.Gen.(
      triple (list_size (1 -- 4) gen_call) (list_size (0 -- 16) gen_row) (0 -- 16))

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

(* A retraction's minus half streams through a key-join stage (one
   index probe per tuple) into invertible and MIN/MAX (re-probed) views;
   jobs 1/2/4 save the same bytes, and the views equal a batch
   evaluation of the survivors. *)
let keyjoin_db jobs =
  let db = Db.create ~jobs () in
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
  define "by_state_count" joined (Sca.Group_agg ([ "state" ], Aggregate.[ count_star "n" ]));
  db

(* The Δ tuples the script streams: 40 appended, 13 retracted. *)
let keyjoin_script db =
  let rows = List.init 40 (fun i -> Fixtures.mile ((i * 7 mod 5) + 1) ((i * 13 mod 50) + 1) (float_of_int (i mod 9) -. 4.)) in
  List.iter (fun chunk -> if chunk <> [] then ignore (Db.append db "mileage" chunk))
    (List.init 8 (fun b -> List.filteri (fun i _ -> i / 5 = b) rows));
  let dropped = List.filteri (fun i _ -> i mod 3 = 1) rows in
  List.iter (fun r -> ignore (Db.retract db "mileage" [ r ])) (List.filteri (fun i _ -> i mod 2 = 0) dropped);
  ignore (Db.retract db "mileage" (List.filteri (fun i _ -> i mod 2 = 1) dropped));
  List.length rows + List.length dropped

let test_keyjoin_minus_jobs () =
  let save jobs =
    let db = keyjoin_db jobs in
    check_bool "five views share one stage" true
      (Delta.stage_consumers (Registry.stages (Db.registry db)) = [ 5 ]);
    let s0 = Stats.snapshot () in
    let streamed = keyjoin_script db in
    let s1 = Stats.snapshot () in
    check_bool "retractions applied" true (Stats.diff_get s0 s1 Stats.Retract_apply > 0);
    check_int "one key-join probe per Δ tuple, plus and minus" streamed
      (Stats.diff_get s0 s1 Stats.Light_fold);
    List.iter
      (fun name ->
        let def = View.def (Db.view db name) in
        check_tuples (name ^ " = batch over survivors")
          (Sca.eval_summarize def (Eval.eval (Sca.body def)))
          (Db.view_contents db name))
      [ "by_state"; "extremes"; "states"; "far"; "by_state_count" ];
    Snapshot.save db
  in
  let one = save 1 in
  List.iter (fun jobs -> check_bool (Printf.sprintf "jobs %d bytes" jobs) true (save jobs = one)) [ 2; 4 ]

(* Key-join views against an independent oracle: a [by_branch] SUM and
   a [detail] projection over [txn ⋈ accounts] equal a from-scratch
   [Naive] recompute over the RETAIN FULL chronicle, under Zipf(1.1)
   and uniform key streams, with non-matching [accounts] inserts
   mid-stream, at jobs 1/2/4. *)
module Banking = Chronicle_workload.Banking
module Rng = Chronicle_workload.Rng
module Zipf = Chronicle_workload.Zipf
module Naive = Chronicle_baseline.Naive

let bank_db jobs =
  let db = Db.create ~jobs () in
  ignore (Db.add_chronicle db ~retention:Chron.Full ~name:"txn" Banking.txn_schema);
  let acc = Db.add_relation db ~name:"accounts" ~schema:Banking.account_schema ~key:[ "acct" ] () in
  List.iter (Versioned.insert acc) (Banking.accounts (Rng.create 7) ~n:16);
  let body =
    Ca.KeyJoinRel (Ca.Chronicle (Db.chronicle db "txn"), Versioned.relation acc, [ ("acct", "acct") ])
  in
  let define name summ = ignore (Db.define_view db (Sca.define ~name ~body summ)) in
  define "by_branch" (Sca.Group_agg ([ "branch" ], [ Aggregate.sum "amount" "total" ]));
  define "detail" (Sca.Project_out [ "acct"; "kind"; "amount"; "branch" ]);
  db

let prop_keyjoin_matches_naive (seed, zipfy, jobs, churn) =
  let zipf = Zipf.create ~n:16 ~s:(if zipfy then 1.1 else 0.) in
  let db = bank_db jobs in
  List.iteri
    (fun i tu ->
      ignore (Db.append db "txn" [ tu ]);
      if churn > 0 && (i + 1) mod churn = 0 then
        Versioned.insert (Db.relation db "accounts")
          (tup [ vi (100_000 + i); vs (Printf.sprintf "late-%d" i); vs "annex" ]))
    (Banking.txn_stream (Rng.create seed) zipf ~n:80);
  List.for_all
    (fun name ->
      let naive = Naive.create (View.def (Db.view db name)) in
      Naive.refresh naive;
      List.equal Tuple.equal (sorted_tuples (Naive.result naive))
        (sorted_tuples (Db.view_contents db name)))
    [ "by_branch"; "detail" ]

let keyjoin_arb =
  QCheck.make
    ~print:(fun (seed, zipfy, jobs, churn) ->
      Printf.sprintf "seed=%d %s jobs=%d churn=%d" seed
        (if zipfy then "zipf(1.1)" else "uniform")
        jobs churn)
    QCheck.Gen.(tup4 (int_bound 1_000_000) bool (oneofl [ 1; 2; 4 ]) (oneofl [ 0; 7; 13 ]))

(* ---- views sharing key-join stages ----

   2–6 views over [txn ⋈ accounts] with random σ/Π chains below the
   join (so some views share a stage and some do not), σ above it, and
   GROUP BY or projection summaries.  The script mixes single appends,
   group commits, proactive account inserts that fall due inside a
   group (so the group folds entry by entry), inserts effective at
   once, and retractions.  A new account is only referenced from the
   sequence number it is visible at, and amounts are whole numbers, so
   a from-scratch [Naive] recompute over the survivors is an exact
   oracle. *)

type below = Whole | Deposits | Large | Narrow
type above = Bare_join | Soho | Debits
type summ = Sum_count | Extremes | Per_acct | Pairs
type sview = { below : below; above : above; summ : summ }

let show_sview v =
  Printf.sprintf "%s/%s/%s"
    (match v.below with Whole -> "C" | Deposits -> "σdeposit" | Large -> "σ>100" | Narrow -> "Π")
    (match v.above with Bare_join -> "-" | Soho -> "σsoho" | Debits -> "σ<0")
    (match v.summ with
    | Sum_count -> "sum,count" | Extremes -> "min,max" | Per_acct -> "avg by acct" | Pairs -> "rows")

let branches = [| "soho"; "chelsea"; "newark" |]

let account a = tup [ vi a; vs (Printf.sprintf "holder-%d" a); vs branches.(a mod 3) ]

let shared_view_db jobs specs =
  let db = Db.create ~jobs () in
  let txn = Db.add_chronicle db ~retention:Chron.Full ~name:"txn" Banking.txn_schema in
  let acc = Db.add_relation db ~name:"accounts" ~schema:Banking.account_schema ~key:[ "acct" ] () in
  List.iter (fun a -> Versioned.insert acc (account a)) [ 1; 2; 3; 4; 5; 6 ];
  List.iteri
    (fun i v ->
      let below =
        match v.below with
        | Whole -> Ca.Chronicle txn
        | Deposits -> Ca.Select (Predicate.("kind" =% vs "deposit"), Ca.Chronicle txn)
        | Large -> Ca.Select (Predicate.("amount" >% vf 100.), Ca.Chronicle txn)
        | Narrow -> Ca.Project ([ Seqnum.attr; "acct"; "amount" ], Ca.Chronicle txn)
      in
      let joined = Ca.KeyJoinRel (below, Versioned.relation acc, [ ("acct", "acct") ]) in
      let body =
        match v.above with
        | Bare_join -> joined
        | Soho -> Ca.Select (Predicate.("branch" =% vs "soho"), joined)
        | Debits -> Ca.Select (Predicate.("amount" <% vf 0.), joined)
      in
      let summ =
        match v.summ with
        | Sum_count -> Sca.Group_agg ([ "branch" ], Aggregate.[ sum "amount" "s"; count_star "n" ])
        | Extremes -> Sca.Group_agg ([ "branch" ], Aggregate.[ min_ "amount" "lo"; max_ "amount" "hi" ])
        | Per_acct -> Sca.Group_agg ([ "acct" ], Aggregate.[ avg "amount" "a"; count_star "n" ])
        | Pairs -> Sca.Project_out [ "acct"; "branch" ]
      in
      ignore (Db.define_view db (Sca.define ~name:(Printf.sprintf "v%d" i) ~body summ)))
    specs;
  db

type sop =
  | Append of Tuple.t list
  | Group of Tuple.t list list
  | Due of Tuple.t * Seqnum.t (* an account insert effective at sn *)
  | Churn of Tuple.t (* an account insert effective now *)
  | Drop of int list (* picks into the stored rows *)

let shared_script seed =
  let rng = Rng.create seed in
  let wm = ref 0 and next = ref 7 in
  let visible = ref (List.map (fun a -> (a, 1)) [ 1; 2; 3; 4; 5; 6 ]) in
  let txn sn =
    let accts = List.filter_map (fun (a, from) -> if from <= sn then Some a else None) !visible in
    let acct = if Rng.int rng 8 = 0 then 999 else List.nth accts (Rng.int rng (List.length accts)) in
    let deposit = Rng.bool rng in
    let amount = float_of_int (1 + Rng.int rng 200) in
    tup [ vi acct; vs (if deposit then "deposit" else "withdrawal"); vf (if deposit then amount else -.amount) ]
  in
  let batch () =
    incr wm;
    let sn = !wm in
    List.init (1 + Rng.int rng 4) (fun _ -> txn sn)
  in
  let group least = Group (List.init (least + Rng.int rng 3) (fun _ -> batch ())) in
  List.concat
    (List.init 12 (fun _ ->
         match Rng.int rng 6 with
         | 0 ->
             (* falls due at the group's second or third entry *)
             let a = !next and eff = !wm + 1 + Rng.int rng 2 in
             incr next;
             visible := (a, eff + 1) :: !visible;
             [ Due (account a, eff); group 3 ]
         | 1 ->
             let a = !next in
             incr next;
             visible := (a, !wm + 1) :: !visible;
             [ Churn (account a) ]
         | 2 | 3 -> [ group 2 ]
         | 4 -> [ Append (batch ()) ]
         | _ -> [ Drop (List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng 1000)) ]))

let apply_sop db = function
  | Append rows -> ignore (Db.append db "txn" rows)
  | Group batches -> ignore (Db.append_group db (List.map (fun rows -> [ ("txn", rows) ]) batches))
  | Due (row, effective) -> Versioned.insert ~effective (Db.relation db "accounts") row
  | Churn row -> Versioned.insert (Db.relation db "accounts") row
  | Drop picks -> (
      let stored = Array.of_list (Chron.stored (Db.chronicle db "txn")) in
      let n = Array.length stored in
      if n > 0 then
        match List.sort_uniq compare (List.map (fun p -> p mod n) picks) with
        | [] -> ()
        | slots -> ignore (Db.retract db "txn" (List.map (fun i -> Chron.untag stored.(i)) slots)))

let matches_naive db name =
  let naive = Naive.create (View.def (Db.view db name)) in
  Naive.refresh naive;
  List.equal Tuple.equal (sorted_tuples (Naive.result naive)) (sorted_tuples (Db.view_contents db name))

let prop_shared_stages (seed, specs) =
  let ops = shared_script seed in
  let run jobs =
    let db = shared_view_db jobs specs in
    List.iter (apply_sop db) ops;
    db
  in
  let db = run 1 in
  List.iteri
    (fun i v ->
      if not (matches_naive db (Printf.sprintf "v%d" i)) then
        QCheck.Test.fail_reportf "v%d (%s) differs from the Naive recompute" i (show_sview v))
    specs;
  let bytes = Snapshot.save db in
  List.iter
    (fun jobs ->
      if Snapshot.save (run jobs) <> bytes then
        QCheck.Test.fail_reportf "jobs %d saves other bytes than jobs 1" jobs)
    [ 2; 4 ];
  true

(* Sharing follows the catalog: dropping one of two sharing views
   leaves its twin the stage's only consumer, redefining it with another
   WHERE interns a second stage, and a view defined after data has
   arrived joins the live stage.  Every survivor equals the recompute,
   and a stage leaves with its last consumer. *)
let test_shared_stage_lifecycle () =
  let db = shared_view_db 1 [] in
  let stages () = Delta.stage_consumers (Registry.stages (Db.registry db)) in
  let acc = Versioned.relation (Db.relation db "accounts") in
  let txn = Db.chronicle db "txn" in
  let define name where summ =
    let below =
      match where with
      | None -> Ca.Chronicle txn
      | Some p -> Ca.Select (p, Ca.Chronicle txn)
    in
    ignore
      (Db.define_view db
         (Sca.define ~name ~body:(Ca.KeyJoinRel (below, acc, [ ("acct", "acct") ])) summ))
  in
  let by_branch = Sca.Group_agg ([ "branch" ], Aggregate.[ sum "amount" "s"; max_ "amount" "hi" ]) in
  let deposits = Some Predicate.("kind" =% vs "deposit") in
  define "a" deposits by_branch;
  define "b" deposits (Sca.Project_out [ "acct"; "branch" ]);
  check_bool "a and b share a stage" true (stages () = [ 2 ]);
  let ops = shared_script 11 in
  let half = List.length ops / 2 in
  List.iteri (fun i op -> if i < half then apply_sop db op) ops;
  Db.drop_view db "b";
  check_bool "b dropped: a alone" true (stages () = [ 1 ]);
  define "b" (Some Predicate.("amount" >% vf 50.)) (Sca.Project_out [ "acct"; "branch" ]);
  check_bool "b redefined with another WHERE: a second stage" true (stages () = [ 1; 1 ]);
  define "c" deposits (Sca.Group_agg ([ "acct" ], Aggregate.[ count_star "n" ]));
  check_bool "c defined after data joins a's stage" true (stages () = [ 2; 1 ]);
  List.iteri (fun i op -> if i >= half then apply_sop db op) ops;
  List.iter
    (fun name -> check_bool (name ^ " = Naive recompute") true (matches_naive db name))
    [ "a"; "b"; "c" ];
  List.iter (Db.drop_view db) [ "a"; "c" ];
  check_bool "a and c dropped: b's stage only" true (stages () = [ 1 ]);
  Db.drop_view db "b";
  check_bool "no stage outlives its last consumer" true (stages () = [])

(* The work counters of a script over sharing views do not depend on
   the parallelism. *)
let test_shared_stats_jobs () =
  let specs =
    List.init 6 (fun i ->
        {
          below = (if i < 4 then Whole else Deposits);
          above = (if i = 1 then Soho else Bare_join);
          summ = [| Sum_count; Extremes; Per_acct; Pairs |].(i mod 4);
        })
  in
  let counters jobs =
    let db = shared_view_db jobs specs in
    let s0 = Stats.snapshot () in
    List.iter (apply_sop db) (shared_script 5);
    Stats.diff s0 (Stats.snapshot ())
  in
  let one = counters 1 in
  check_bool "key-join probes counted" true (List.mem_assoc Stats.Light_fold one);
  List.iter
    (fun jobs ->
      check_bool (Printf.sprintf "jobs %d counters = jobs 1" jobs) true (counters jobs = one))
    [ 2; 4 ]

let shared_arb =
  QCheck.make
    ~print:(fun (seed, specs) ->
      Printf.sprintf "seed=%d views=[%s]" seed (String.concat "; " (List.map show_sview specs)))
    QCheck.Gen.(
      pair (int_bound 1_000_000)
        (list_size (2 -- 6)
           (map3
              (fun below above summ -> { below; above; summ })
              (oneofl [ Whole; Deposits; Large; Narrow ])
              (oneofl [ Bare_join; Soho; Debits ])
              (oneofl [ Sum_count; Extremes; Per_acct; Pairs ]))))

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

(* Eight views over one key-join stage, through [Db.append]: the stage
   runs once per entry, so the joined tuples are built once, not eight
   times.  What remains per Δ tuple is recording (the tagged tuple and
   its list cell), the stage's output held in the entry's memo, and the
   append's fixed costs spread over the batch.  Measured: 78.4 words
   per Δ tuple; one view alone 46.1; eight views each probing the
   relation themselves 135.8. *)
let test_shared_allocation_budget () =
  if Sys.backend_type = Sys.Native then begin
    let db = Db.create () in
    ignore (Db.add_chronicle db ~name:"mileage" Fixtures.mileage_schema);
    let cust = Db.add_relation db ~name:"customers" ~schema:Fixtures.customer_schema ~key:[ "cust" ] () in
    List.iter (fun c -> Versioned.insert cust (tup [ vi c; vs (if c mod 2 = 0 then "NY" else "NJ") ])) [ 1; 2; 3; 4 ];
    let joined =
      Ca.KeyJoinRel (Ca.Chronicle (Db.chronicle db "mileage"), Versioned.relation cust, [ ("acct", "cust") ])
    in
    for i = 1 to 8 do
      ignore
        (Db.define_view db
           (Sca.define ~name:(Printf.sprintf "v%d" i) ~body:joined
              (Sca.Group_agg ([ "state" ], Aggregate.[ sum "fare" "f"; count_star "n" ]))))
    done;
    let batch = List.init 64 (fun i -> Fixtures.mile ((i mod 4) + 1) i (float_of_int i)) in
    ignore (Db.append db "mileage" batch);
    let w0 = Gc.minor_words () in
    for _ = 1 to 10 do
      ignore (Db.append db "mileage" batch)
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int (10 * List.length batch) in
    Printf.printf "minor words per Δ tuple, 8 views sharing a key-join stage: %.2f\n" words;
    if words > 90.0 then Alcotest.failf "shared key-join fold: %.2f words/tuple > 90.0" words
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
    test "allocation budget: 8 views sharing a key-join stage, through Db.append"
      test_shared_allocation_budget;
    test "shared stages follow drop, redefinition and late definition"
      test_shared_stage_lifecycle;
    test "shared stages: work counters equal at jobs 1/2/4" test_shared_stats_jobs;
    qtest ~count:40 "key-join views = Naive recompute (uniform + Zipf(1.1), jobs 1/2/4, churn)"
      keyjoin_arb prop_keyjoin_matches_naive;
    qtest ~count:60
      "views sharing key-join stages = Naive recompute; jobs 1/2/4 save the same bytes"
      shared_arb prop_shared_stages;
    qtest ~count:400 "GROUPBY rows, cell bytes and merges ≡ the boxed fold (every function, nulls, floats)"
      boxed_arb prop_boxed_differential;
  ]
