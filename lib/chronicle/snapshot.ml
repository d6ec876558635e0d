open Relational

exception Snapshot_error of string

let error fmt = Format.kasprintf (fun s -> raise (Snapshot_error s)) fmt

(* Every serializer below is a [put_x]/[get_x] pair over {!Codec};
   variants are one tag byte then their fields in declaration order. *)

let put_tag buf t = Buffer.add_char buf (Char.chr t)

(* ---- schemas and tuples ---- *)

let tys = [| Value.TBool; Value.TInt; Value.TFloat; Value.TStr |]

let put_ty buf ty =
  put_tag buf (match ty with Value.TBool -> 0 | TInt -> 1 | TFloat -> 2 | TStr -> 3)

let get_ty r =
  match Codec.byte r with
  | t when t < Array.length tys -> tys.(t)
  | t -> Codec.fail "unknown type tag %#x" t

let put_schema buf schema =
  Codec.put_list
    (fun buf (a : Schema.attr) ->
      Codec.put_string buf a.name;
      put_ty buf a.ty)
    buf
    (Array.to_list (Schema.attrs schema))

let get_schema r =
  Schema.make
    (Codec.list
       (fun r ->
         let name = Codec.string_ r in
         (name, get_ty r))
       r)

let put_key = Codec.put_list Codec.put_value
let get_key = Codec.list Codec.value
let put_tuple buf tu = put_key buf (Array.to_list tu)
let get_tuple r = Tuple.make (get_key r)
let put_attrs = Codec.put_list Codec.put_string
let get_attrs = Codec.list Codec.string_

(* ---- predicates ---- *)

let ops = [| Predicate.Eq; Ne; Le; Lt; Gt; Ge |]

let put_operand buf = function
  | Predicate.Attr a ->
      put_tag buf 0;
      Codec.put_string buf a
  | Predicate.Const v ->
      put_tag buf 1;
      Codec.put_value buf v

let get_operand r =
  match Codec.byte r with
  | 0 -> Predicate.Attr (Codec.string_ r)
  | 1 -> Predicate.Const (Codec.value r)
  | t -> Codec.fail "unknown operand tag %#x" t

let rec put_predicate buf = function
  | Predicate.True -> put_tag buf 0
  | Predicate.False -> put_tag buf 1
  | Predicate.Cmp (a, op, b) ->
      put_tag buf 2;
      put_operand buf a;
      put_tag buf
        (match op with Eq -> 0 | Ne -> 1 | Le -> 2 | Lt -> 3 | Gt -> 4 | Ge -> 5);
      put_operand buf b
  | Predicate.And (p, q) -> put_pair buf 3 p q
  | Predicate.Or (p, q) -> put_pair buf 4 p q
  | Predicate.Not p ->
      put_tag buf 5;
      put_predicate buf p

and put_pair buf tag p q =
  put_tag buf tag;
  put_predicate buf p;
  put_predicate buf q

let rec get_predicate r =
  match Codec.byte r with
  | 0 -> Predicate.True
  | 1 -> Predicate.False
  | 2 ->
      let a = get_operand r in
      let op =
        match Codec.byte r with
        | t when t < Array.length ops -> ops.(t)
        | t -> Codec.fail "unknown comparison tag %#x" t
      in
      Predicate.Cmp (a, op, get_operand r)
  | 3 ->
      let p = get_predicate r in
      Predicate.And (p, get_predicate r)
  | 4 ->
      let p = get_predicate r in
      Predicate.Or (p, get_predicate r)
  | 5 -> Predicate.Not (get_predicate r)
  | t -> Codec.fail "unknown predicate tag %#x" t

(* ---- aggregation calls ---- *)

let put_call buf (c : Aggregate.call) =
  Codec.put_string buf (Aggregate.func_name c.func);
  Codec.put_option Codec.put_string buf c.arg;
  Codec.put_string buf c.alias

let get_call r =
  let fname = Codec.string_ r in
  let func =
    match Aggregate.func_of_name fname with
    | Some f -> f
    | None -> Codec.fail "unknown aggregate %S" fname
  in
  let arg = Codec.option Codec.string_ r in
  { Aggregate.func; arg; alias = Codec.string_ r }

(* ---- chronicle algebra: chronicles and relations by name ---- *)

let rec put_ca buf = function
  | Ca.Chronicle c ->
      put_tag buf 0;
      Codec.put_string buf (Chron.name c)
  | Ca.Select (p, e) ->
      put_tag buf 1;
      put_predicate buf p;
      put_ca buf e
  | Ca.Project (attrs, e) ->
      put_tag buf 2;
      put_attrs buf attrs;
      put_ca buf e
  | Ca.SeqJoin (l, r) -> put_ca2 buf 3 l r
  | Ca.Union (l, r) -> put_ca2 buf 4 l r
  | Ca.Diff (l, r) -> put_ca2 buf 5 l r
  | Ca.GroupBySeq (gl, al, e) ->
      put_tag buf 6;
      put_attrs buf gl;
      Codec.put_list put_call buf al;
      put_ca buf e
  | Ca.ProductRel (e, rel) ->
      put_tag buf 7;
      put_ca buf e;
      Codec.put_string buf (Relation.name rel)
  | Ca.KeyJoinRel (e, rel, pairs) ->
      put_tag buf 8;
      put_ca buf e;
      Codec.put_string buf (Relation.name rel);
      Codec.put_list
        (fun buf (a, b) ->
          Codec.put_string buf a;
          Codec.put_string buf b)
        buf pairs
  | Ca.CrossChron (l, r) -> put_ca2 buf 9 l r
  | Ca.ThetaJoinChron (p, l, r) ->
      put_tag buf 10;
      put_predicate buf p;
      put_ca buf l;
      put_ca buf r

and put_ca2 buf tag l r =
  put_tag buf tag;
  put_ca buf l;
  put_ca buf r

let rec get_ca ~chronicle ~relation r =
  let get = get_ca ~chronicle ~relation in
  let two mk =
    let l = get r in
    mk l (get r)
  in
  match Codec.byte r with
  | 0 -> Ca.Chronicle (chronicle (Codec.string_ r))
  | 1 ->
      let p = get_predicate r in
      Ca.Select (p, get r)
  | 2 ->
      let attrs = get_attrs r in
      Ca.Project (attrs, get r)
  | 3 -> two (fun l r -> Ca.SeqJoin (l, r))
  | 4 -> two (fun l r -> Ca.Union (l, r))
  | 5 -> two (fun l r -> Ca.Diff (l, r))
  | 6 ->
      let gl = get_attrs r in
      let al = Codec.list get_call r in
      Ca.GroupBySeq (gl, al, get r)
  | 7 ->
      let e = get r in
      Ca.ProductRel (e, relation (Codec.string_ r))
  | 8 ->
      let e = get r in
      let rel = relation (Codec.string_ r) in
      let pairs =
        Codec.list
          (fun r ->
            let a = Codec.string_ r in
            (a, Codec.string_ r))
          r
      in
      Ca.KeyJoinRel (e, rel, pairs)
  | 9 -> two (fun l r -> Ca.CrossChron (l, r))
  | 10 ->
      let p = get_predicate r in
      two (fun l r -> Ca.ThetaJoinChron (p, l, r))
  | t -> Codec.fail "unknown chronicle-algebra tag %#x" t

(* ---- views ---- *)

let put_summarize buf = function
  | Sca.Project_out attrs ->
      put_tag buf 0;
      put_attrs buf attrs
  | Sca.Group_agg (gl, al) ->
      put_tag buf 1;
      put_attrs buf gl;
      Codec.put_list put_call buf al

let get_summarize r =
  match Codec.byte r with
  | 0 -> Sca.Project_out (get_attrs r)
  | 1 ->
      let gl = get_attrs r in
      Sca.Group_agg (gl, Codec.list get_call r)
  | t -> Codec.fail "unknown summarization tag %#x" t

let put_sca buf def =
  Codec.put_string buf (Sca.name def);
  put_ca buf (Sca.body def);
  put_summarize buf (Sca.summarize def)

let get_sca ~chronicle ~relation r =
  let name = Codec.string_ r in
  let body = get_ca ~chronicle ~relation r in
  Sca.define ~allow_non_ca:true ~name ~body (get_summarize r)

let put_index_kind buf k =
  put_tag buf (match k with Index.Hash -> 0 | Index.Ordered -> 1)

let get_index_kind r =
  match Codec.byte r with
  | 0 -> Index.Hash
  | 1 -> Index.Ordered
  | t -> Codec.fail "unknown index kind %#x" t

(* View contents are written with their hidden ℤ-multiplicities: a view
   restored from a checkpoint must keep maintaining correctly under
   retraction, so crash-equivalence holds for weighted workloads too. *)
let put_view_contents buf view =
  match View.dump view with
  | View.Rows_dump keys ->
      put_tag buf 0;
      Codec.put_list
        (fun buf (key, mult) ->
          put_key buf key;
          Codec.put_int buf mult)
        buf keys
  | View.Groups_dump groups ->
      put_tag buf 1;
      Codec.put_list
        (fun buf (key, mult, states) ->
          put_key buf key;
          Codec.put_int buf mult;
          Codec.put_list Aggregate.put_state buf states)
        buf groups

let get_view_contents r =
  match Codec.byte r with
  | 0 ->
      View.Rows_dump
        (Codec.list
           (fun r ->
             let key = get_key r in
             (key, Codec.int_ r))
           r)
  | 1 ->
      View.Groups_dump
        (Codec.list
           (fun r ->
             let key = get_key r in
             let mult = Codec.int_ r in
             (key, mult, Codec.list Aggregate.get_state r))
           r)
  | t -> Codec.fail "unknown view contents tag %#x" t

(* ---- whole database ---- *)

let put_retention buf = function
  | Chron.Discard -> put_tag buf 0
  | Chron.Full -> put_tag buf 1
  | Chron.Window n ->
      put_tag buf 2;
      Codec.put_int buf n

let get_retention r =
  match Codec.byte r with
  | 0 -> Chron.Discard
  | 1 -> Chron.Full
  | 2 -> Chron.Window (Codec.int_ r)
  | t -> Codec.fail "unknown retention tag %#x" t

let put_db buf db =
  Codec.put_list
    (fun buf name ->
      let g = Db.group db name in
      Codec.put_string buf name;
      Codec.put_int buf (Group.watermark g);
      Codec.put_int buf (Group.now g))
    buf (Db.group_names db);
  Codec.put_list
    (fun buf name ->
      let c = Db.chronicle db name in
      Codec.put_string buf name;
      Codec.put_string buf (Group.name (Chron.group c));
      put_retention buf (Chron.retention c);
      put_schema buf (Chron.user_schema c);
      Codec.put_int buf (Chron.total_appended c);
      Codec.put_option Codec.put_int buf (Chron.last_sn c);
      Codec.put_list put_tuple buf (Chron.stored c))
    buf (Db.chronicle_names db);
  Codec.put_list
    (fun buf name ->
      let v = Db.relation db name in
      if Versioned.pending_count v > 0 then
        error
          "relation %s has %d pending future-effective updates; apply or \
           drop them before snapshotting (update functions are code and \
           cannot be serialized)"
          name (Versioned.pending_count v);
      let rel = Versioned.relation v in
      Codec.put_string buf name;
      Codec.put_string buf (Group.name (Versioned.group v));
      put_schema buf (Relation.schema rel);
      Codec.put_option put_attrs buf (Relation.key rel);
      Codec.put_list put_tuple buf (Relation.to_list rel))
    buf (Db.relation_names db);
  Codec.put_list
    (fun buf view ->
      let def = View.def view in
      Codec.put_string buf (View.name view);
      put_index_kind buf (View.index_kind view);
      put_ca buf (Sca.body def);
      put_summarize buf (Sca.summarize def);
      put_view_contents buf view)
    buf (Db.views db)

let get_db ?jobs r =
  let groups =
    Codec.list
      (fun r ->
        let name = Codec.string_ r in
        let watermark = Codec.int_ r in
        (name, watermark, Codec.int_ r))
      r
  in
  (* the first group is the database's default one; extras are added *)
  let db =
    Db.create
      ~default_group:(match groups with (name, _, _) :: _ -> name | [] -> "main")
      ?jobs ()
  in
  List.iteri
    (fun i (name, watermark, clock) ->
      let g = if i = 0 then Db.group db name else Db.add_group db name in
      if watermark > Group.watermark g then Group.claim_sn g watermark;
      Group.advance_clock g clock)
    groups;
  ignore
    (Codec.list
       (fun r ->
         let name = Codec.string_ r in
         let group = Codec.string_ r in
         let retention = get_retention r in
         let c = Db.add_chronicle db ~group ~retention ~name (get_schema r) in
         let total = Codec.int_ r in
         let last_sn = Codec.option Codec.int_ r in
         Chron.restore c ~total ~last_sn ~retained:(Codec.list get_tuple r))
       r);
  ignore
    (Codec.list
       (fun r ->
         let name = Codec.string_ r in
         let group = Codec.string_ r in
         let schema = get_schema r in
         let key = Codec.option get_attrs r in
         let v = Db.add_relation db ~group ~name ~schema ?key () in
         List.iter (Versioned.insert v) (Codec.list get_tuple r))
       r);
  ignore
    (Codec.list
       (fun r ->
         let name = Codec.string_ r in
         let index = get_index_kind r in
         let body =
           get_ca ~chronicle:(Db.chronicle db)
             ~relation:(fun n -> Versioned.relation (Db.relation db n))
             r
         in
         let def = Sca.define ~allow_non_ca:true ~name ~body (get_summarize r) in
         let view = View.create ~index def in
         View.load view (get_view_contents r);
         Registry.register (Db.registry db) view)
       r);
  db

let save db = Codec.encode put_db db

let decode_with what get data =
  match Codec.decode get data with
  | Ok x -> x
  | Error reason -> error "malformed %s: %s" what reason
  | exception (Snapshot_error _ as e) -> raise e
  | exception e -> error "%s does not load: %s" what (Printexc.to_string e)

let load ?jobs data = decode_with "snapshot" (get_db ?jobs) data

let save_file db path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (save db))

let load_file ?jobs path = load ?jobs (In_channel.with_open_bin path In_channel.input_all)
