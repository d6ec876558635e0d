(* Workload generation and the reference fold.

   Every input is drawn from one seed with Chronicle_workload: the
   accounts relation (Banking.accounts), the transaction stream
   (Banking.txn, account keys Zipf s = 1.1 over 10k accounts) and the
   mixed workload's op choices.  The server only ever sees the
   generated ℒ text and wire frames.  The reference fold mirrors every
   view the workload defines, so results read back from the server can
   be checked without trusting it. *)

open Relational
module W = Chronicle_workload
module P = Chronicle_net.Protocol

type workload = Ingest | Fanout | Mixed

let workload_of_string = function
  | "ingest" -> Some Ingest
  | "fanout" -> Some Fanout
  | "mixed" -> Some Mixed
  | _ -> None

let workload_name = function
  | Ingest -> "ingest"
  | Fanout -> "fanout"
  | Mixed -> "mixed"

let n_accounts = 10_000
let zipf_s = 1.1

(* ---- server settings and load shape per workload ----

   No workload syncs: fsync latency on a shared virtual disk swings with
   other guests' I/O and would swamp the program's own costs.  The
   journal is still encoded, checksummed and written on every commit. *)

type shape = {
  sync : string;  (** the server's --sync policy *)
  batch : int;  (** the server's --batch threshold *)
  rows_per_frame : int;
  window : int;  (** requests in flight; a multiple of [batch] *)
  warmup : int;  (** untimed requests before the measured phase *)
  replay : int;  (** requests replayed by the in-process trace *)
}

let shape = function
  | Ingest ->
      {
        sync = "never";
        batch = 16;
        rows_per_frame = 4;
        window = 64;
        warmup = 8192;
        replay = 4096;
      }
  | Fanout ->
      (* eight frames in flight can never fill a group of 16; groups of
         four keep two in flight, so the server has the next group
         while the client reads the acks of the last *)
      {
        sync = "never";
        batch = 4;
        rows_per_frame = 64;
        window = 8;
        warmup = 256;
        replay = 256;
      }
  | Mixed ->
      (* batch 1: a deferred ack (batch > 1) would hold an APPEND INTO's
         answer until its group fills *)
      {
        sync = "never";
        batch = 1;
        rows_per_frame = 16;
        window = 8;
        warmup = 600;
        replay = 300;
      }

(* ---- views ---- *)

type key = Acct | Kind | Branch
type agg = Sum | Count | Min | Max | Avg
type filter = Deposits | Large

type view = {
  name : string;
  key : key;
  aggs : (agg * string) list;  (** aggregate, output column *)
  filter : filter option;
  join : bool;  (** key join to the accounts relation *)
}

let key_col = function Acct -> "acct" | Kind -> "kind" | Branch -> "branch"

let agg_sql (a, col) =
  match a with
  | Sum -> Printf.sprintf "SUM(amount) AS %s" col
  | Count -> Printf.sprintf "COUNT(*) AS %s" col
  | Min -> Printf.sprintf "MIN(amount) AS %s" col
  | Max -> Printf.sprintf "MAX(amount) AS %s" col
  | Avg -> Printf.sprintf "AVG(amount) AS %s" col

let filter_sql = function
  | Deposits -> "kind = 'deposit'"
  | Large -> "amount > 100.0"

let view_sql v =
  Printf.sprintf "DEFINE VIEW %s AS SELECT %s, %s FROM CHRONICLE txn%s%s GROUP BY %s;"
    v.name (key_col v.key)
    (String.concat ", " (List.map agg_sql v.aggs))
    (if v.join then " JOIN accounts ON acct = acct" else "")
    (match v.filter with None -> "" | Some f -> " WHERE " ^ filter_sql f)
    (key_col v.key)

let balance =
  {
    name = "balance";
    key = Acct;
    aggs = [ (Sum, "total"); (Count, "n") ];
    filter = None;
    join = false;
  }

let by_branch =
  { name = "by_branch"; key = Branch; aggs = [ (Sum, "total") ]; filter = None; join = true }

let top = { name = "top"; key = Acct; aggs = [ (Max, "v") ]; filter = None; join = false }

(* fanout: 16 views over the chronicle and 16 key joins to accounts;
   half of each carry a WHERE the registry can prune on *)
let fanout_views =
  let cycle = [| Sum; Count; Min; Max; Avg |] in
  let filter i = if i < 8 then None else Some (if i mod 2 = 0 then Deposits else Large) in
  let chron =
    List.init 15 (fun k ->
        let i = k + 1 in
        {
          name = Printf.sprintf "c%02d" i;
          key = (if i mod 2 = 0 then Acct else Kind);
          aggs = [ (cycle.(i mod 5), "v") ];
          filter = filter i;
          join = false;
        })
  and joins =
    List.init 15 (fun k ->
        let i = k + 1 in
        {
          name = Printf.sprintf "j%02d" i;
          key = Branch;
          aggs = [ (cycle.(i mod 5), "v") ];
          filter = filter i;
          join = true;
        })
  in
  (balance :: chron) @ (by_branch :: joins)

let views = function
  | Ingest -> [ balance; by_branch ]
  | Fanout -> fanout_views
  | Mixed -> [ balance; top ]

(* ---- literals ---- *)

(* %.17g round-trips every double; a literal without a '.' would lex
   as an INT *)
let float_lit f =
  let s = Printf.sprintf "%.17g" f in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let value_lit = function
  | Value.Int i -> string_of_int i
  | Value.Float f -> float_lit f
  | Value.Str s -> "'" ^ s ^ "'"
  | v -> Value.to_string v

let row_lit row = "(" ^ String.concat ", " (List.map value_lit row) ^ ")"

(* ---- the generated inputs ---- *)

type row = { acct : int; kind : string; amount : float }

let values r = [ Value.Int r.acct; Value.Str r.kind; Value.Float r.amount ]

type op = Append of row list | Query of int | Retract of row

type t = {
  workload : workload;
  shape : shape;
  setup_stmts : string list;  (** preload statement frames: DDL, relation rows *)
  setup_appends : string list;  (** preload APPEND frames: retained history *)
  branch_of : string array;  (** acct -> branch (index 0 unused) *)
  rng : W.Rng.t;  (** the stream generator, advanced by [next_op] *)
  zipf : W.Zipf.t;
  mutable ops : int;  (** ops drawn so far *)
  appended : row Vec.t;  (** every row appended, for retract picks *)
  retracted : (int, unit) Hashtbl.t;
}

let stmt text = P.encode_request (P.Stmt text)
let append_frame rows = P.encode_request (P.Append { chronicle = "txn"; rows = List.map values rows })

let chunks k l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

let draw_row rng zipf =
  let t = W.Banking.txn rng zipf in
  match (Tuple.get t 0, Tuple.get t 1, Tuple.get t 2) with
  | Value.Int acct, Value.Str kind, Value.Float amount -> { acct; kind; amount }
  | _ -> failwith "Banking.txn: unexpected tuple shape"

let create workload ~seed =
  let root = W.Rng.create seed in
  let acc_rng = W.Rng.split root in
  let hist_rng = W.Rng.split root in
  let rng = W.Rng.split root in
  let zipf = W.Zipf.create ~n:n_accounts ~s:zipf_s in
  let shape = shape workload in
  let accounts = W.Banking.accounts acc_rng ~n:n_accounts in
  let branch_of = Array.make (n_accounts + 1) "" in
  List.iter
    (fun t ->
      match (Tuple.get t 0, Tuple.get t 2) with
      | Value.Int a, Value.Str b -> branch_of.(a) <- b
      | _ -> ())
    accounts;
  let retain = match workload with Mixed -> " RETAIN FULL" | _ -> "" in
  let ddl =
    [ stmt ("CREATE CHRONICLE txn (acct INT, kind STRING, amount FLOAT)" ^ retain ^ ";") ]
  in
  let relation =
    match workload with
    | Mixed -> []
    | Ingest | Fanout ->
        stmt "CREATE RELATION accounts (acct INT, name STRING, branch STRING) KEY (acct);"
        :: List.map
             (fun chunk ->
               let rows =
                 List.map (fun t -> row_lit (List.init (Tuple.arity t) (Tuple.get t))) chunk
               in
               stmt ("INSERT INTO accounts VALUES " ^ String.concat ", " rows ^ ";"))
             (chunks 1000 accounts)
  in
  let defs = List.map (fun v -> stmt (view_sql v)) (views workload) in
  let history =
    match workload with
    | Mixed -> List.init 20_000 (fun _ -> draw_row hist_rng zipf)
    | Ingest | Fanout -> []
  in
  let frames = List.map append_frame (chunks shape.rows_per_frame history) in
  let appended = Vec.create () in
  List.iter (fun r -> ignore (Vec.push appended r)) history;
  {
    workload;
    shape;
    setup_stmts = ddl @ relation @ defs;
    setup_appends = frames;
    branch_of;
    rng;
    zipf;
    ops = 0;
    appended;
    retracted = Hashtbl.create 64;
  }

(* The mixed cycle of 100 ops: a retract at position 99, a point query
   at every fifth position before it (19), appends elsewhere (80). *)
let mixed_kind i =
  let p = i mod 100 in
  if p = 99 then `Retract else if p mod 5 = 4 then `Query else `Append

let next_rows g = List.init g.shape.rows_per_frame (fun _ -> draw_row g.rng g.zipf)

(* A row appended earlier and not yet retracted. *)
let pick_retract g =
  let n = Vec.length g.appended in
  let rec probe i =
    if Hashtbl.mem g.retracted i then probe ((i + 1) mod n)
    else begin
      Hashtbl.replace g.retracted i ();
      Vec.get g.appended i
    end
  in
  probe (W.Rng.int g.rng n)

let next_op g =
  let i = g.ops in
  g.ops <- i + 1;
  match g.workload with
  | Ingest | Fanout -> Append (next_rows g)
  | Mixed -> (
      match mixed_kind i with
      | `Append ->
          let rows = next_rows g in
          List.iter (fun r -> ignore (Vec.push g.appended r)) rows;
          Append rows
      | `Query -> Query (W.Zipf.sample g.zipf g.rng)
      | `Retract -> Retract (pick_retract g))

let query_text acct =
  Printf.sprintf "SELECT acct, total, n FROM balance WHERE acct = %d;" acct

(* The ℒ text of one op; appends on ingest and fanout have none — they
   take the binary APPEND fast path. *)
let text g = function
  | Append rows -> (
      match g.workload with
      | Ingest | Fanout -> None
      | Mixed ->
          Some
            ("APPEND INTO txn VALUES "
            ^ String.concat ", " (List.map (fun r -> row_lit (values r)) rows)
            ^ ";"))
  | Query acct -> Some (query_text acct)
  | Retract r -> Some ("RETRACT FROM txn VALUES " ^ row_lit (values r) ^ ";")

let frame g op =
  match (text g op, op) with
  | Some t, _ -> stmt t
  | None, Append rows -> append_frame rows
  | None, (Query _ | Retract _) -> assert false

let op_rows = function Append rows -> List.length rows | Query _ | Retract _ -> 0

(* Point-query keys for the verification pass of ingest and fanout. *)
let probe_keys ~seed n =
  let rng = W.Rng.create (seed lxor 0x5eed) in
  let zipf = W.Zipf.create ~n:n_accounts ~s:zipf_s in
  List.init n (fun _ -> W.Zipf.sample zipf rng)

(* ---- the reference fold ---- *)

type acc = {
  mutable sum : float;
  mutable cnt : int;
  mutable lo : float;
  mutable hi : float;
  mutable items : float list;  (** kept only where rows can be retracted *)
}

type reference = {
  tables : (string * (string, acc) Hashtbl.t) list;  (** per view *)
  keep_items : bool;
  branches : string array;
  vs : view list;
}

let key_of r v row =
  match v.key with
  | Acct -> string_of_int row.acct
  | Kind -> "\"" ^ row.kind ^ "\""
  | Branch -> "\"" ^ r.branches.(row.acct) ^ "\""

let passes v row =
  match v.filter with
  | None -> true
  | Some Deposits -> row.kind = "deposit"
  | Some Large -> row.amount > 100.0

(* Each key is rendered once per row, not once per view: the fanout
   reference folds every row into 32 views. *)
let fold r row =
  let acct = lazy (string_of_int row.acct)
  and kind = lazy ("\"" ^ row.kind ^ "\"")
  and branch = lazy ("\"" ^ r.branches.(row.acct) ^ "\"") in
  List.iter2
    (fun v (_, tbl) ->
      if passes v row then begin
        let k = Lazy.force (match v.key with Acct -> acct | Kind -> kind | Branch -> branch) in
        match Hashtbl.find_opt tbl k with
        | Some a ->
            a.sum <- a.sum +. row.amount;
            a.cnt <- a.cnt + 1;
            a.lo <- Float.min a.lo row.amount;
            a.hi <- Float.max a.hi row.amount;
            if r.keep_items then a.items <- row.amount :: a.items
        | None ->
            Hashtbl.replace tbl k
              {
                sum = row.amount;
                cnt = 1;
                lo = row.amount;
                hi = row.amount;
                items = (if r.keep_items then [ row.amount ] else []);
              }
      end)
    r.vs r.tables

(* The reference starts from the preloaded history. *)
let reference (g : t) =
  let vs = views g.workload in
  let r =
    {
      tables = List.map (fun v -> (v.name, Hashtbl.create 1024)) vs;
      keep_items = g.workload = Mixed;
      branches = g.branch_of;
      vs;
    }
  in
  Vec.iter (fold r) g.appended;
  r

(* Retraction removes one occurrence; MIN/MAX are recomputed from the
   kept items, exactly the re-probe the engine performs. *)
let unfold r row =
  List.iter
    (fun v ->
      if passes v row then begin
        let tbl = List.assoc v.name r.tables in
        let k = key_of r v row in
        let a = Hashtbl.find tbl k in
        let rec drop = function
          | [] -> []
          | x :: rest -> if Float.equal x row.amount then rest else x :: drop rest
        in
        a.items <- drop a.items;
        a.cnt <- a.cnt - 1;
        a.sum <- a.sum -. row.amount;
        if a.cnt = 0 then Hashtbl.remove tbl k
        else begin
          a.lo <- List.fold_left Float.min infinity a.items;
          a.hi <- List.fold_left Float.max neg_infinity a.items
        end
      end)
    r.vs

let apply r = function
  | Append rows -> List.iter (fold r) rows
  | Retract row -> unfold r row
  | Query _ -> ()

(* ---- reading rendered results back ---- *)

(* [Analyze.pp_result] renders rows as "(k=v, k=v)" lines (floats
   with %g, strings quoted); a long tuple may wrap, so whitespace is
   normalized before splitting. *)
let parse_rows text =
  let text = String.map (fun c -> if c = '\n' then ' ' else c) text in
  let rows = ref [] in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    match String.index_from_opt text !i '(' with
    | None -> i := n
    | Some o -> (
        match String.index_from_opt text o ')' with
        | None -> i := n
        | Some c ->
            let body = String.sub text (o + 1) (c - o - 1) in
            if String.contains body '=' then
              rows :=
                List.map
                  (fun field ->
                    match String.index_opt field '=' with
                    | Some e ->
                        ( String.trim (String.sub field 0 e),
                          String.trim
                            (String.sub field (e + 1) (String.length field - e - 1)) )
                    | None -> (String.trim field, ""))
                  (String.split_on_char ',' body)
                :: !rows;
            i := c + 1)
  done;
  List.rev !rows

(* %g keeps six significant digits *)
let close_enough ~expect got =
  match float_of_string_opt got with
  | None -> false
  | Some g -> Float.abs (g -. expect) <= (1e-5 *. Float.max 1.0 (Float.abs expect)) +. 1e-6

let agg_matches a (agg, _) got =
  match agg with
  | Count -> got = string_of_int a.cnt
  | Sum -> close_enough ~expect:a.sum got
  | Min -> close_enough ~expect:a.lo got
  | Max -> close_enough ~expect:a.hi got
  | Avg -> close_enough ~expect:(a.sum /. float_of_int a.cnt) got

(* The reference cut down to one key of one view, copied: what a point
   query sent now must read, whatever is folded after it is sent. *)
let point r ~view key =
  let tbl = Hashtbl.create 1 in
  (match Hashtbl.find_opt (List.assoc view r.tables) key with
  | Some a -> Hashtbl.replace tbl key { a with items = [] }
  | None -> ());
  { r with tables = [ (view, tbl) ] }

(* Mismatches between a rendered view (or view slice) and the
   reference; [only] restricts the expected keys to one. *)
let check_rows r ~view ?only text =
  let v = List.find (fun v -> v.name = view) r.vs in
  let tbl = List.assoc view r.tables in
  let rows = parse_rows text in
  let bad = ref 0 in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun fields ->
      match List.assoc_opt (key_col v.key) fields with
      | None -> incr bad
      | Some k -> (
          Hashtbl.replace seen k ();
          match Hashtbl.find_opt tbl k with
          | None -> incr bad
          | Some a ->
              List.iter
                (fun ((_, col) as ag) ->
                  match List.assoc_opt col fields with
                  | Some got when agg_matches a ag got -> ()
                  | _ -> incr bad)
                v.aggs))
    rows;
  (match only with
  | Some k -> if Hashtbl.mem tbl k && not (Hashtbl.mem seen k) then incr bad
  | None ->
      Hashtbl.iter (fun k _ -> if not (Hashtbl.mem seen k) then incr bad) tbl);
  !bad
