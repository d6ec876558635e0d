(* E6 — §5.2: identifying affected persistent views.

   n selective views over one chronicle, each watching one account; an
   append matches exactly one of them.  With registry guard filtering
   the append maintains 1 view (n cheap guard checks); without it all n
   dependents run the full Δ machinery.  The gap widens with n. *)

open Relational
open Chronicle_core

let schema = Schema.make [ ("acct", Value.TInt); ("x", Value.TInt) ]

let setup n =
  let group = Group.create "g" in
  let chron = Chron.create ~group ~name:"txns" schema in
  let reg = Registry.create () in
  let views =
    List.init n (fun i ->
        let acct = i + 1 in
        let def =
          Sca.define
            ~name:(Printf.sprintf "acct_%d" acct)
            ~body:
              (Ca.Select (Predicate.("acct" =% Value.Int acct), Ca.Chronicle chron))
            (Sca.Group_agg ([ "acct" ], [ Aggregate.sum "x" "total" ]))
        in
        let v = View.create def in
        Registry.register reg v;
        v)
  in
  (chron, reg, views)

let run () =
  Measure.section "E6: §5.2 — affected-view identification"
    "n single-account views over one chronicle; each append concerns one \
     account.  'filtered' uses the registry's extracted guards; \
     'unfiltered' runs Δ-maintenance on every dependent view.";
  let rows = ref [] in
  List.iter
    (fun n ->
      let chron, reg, views = setup n in
      let tuple i = Tuple.make [ Value.Int ((i mod n) + 1); Value.Int 1 ] in
      let filtered =
        Measure.per_op ~times:300 (fun i ->
            let tu = tuple i in
            let sn = Chron.append chron [ tu ] in
            let batch = [ (chron, [ Chron.tag sn tu ]) ] in
            List.iter
              (fun v ->
                View.apply v
                  (Delta.of_zset {
                    Delta.plus = Delta.eval (Sca.body (View.def v)) ~sn ~batch;
                    minus = [];
                  }))
              (Registry.affected reg chron [ Chron.tag sn tu ]))
      in
      let maintained_before = Registry.skipped reg in
      ignore maintained_before;
      let unfiltered =
        Measure.per_op ~times:300 (fun i ->
            let tu = tuple i in
            let sn = Chron.append chron [ tu ] in
            let batch = [ (chron, [ Chron.tag sn tu ]) ] in
            List.iter
              (fun v ->
                View.apply v
                  (Delta.of_zset {
                    Delta.plus = Delta.eval (Sca.body (View.def v)) ~sn ~batch;
                    minus = [];
                  }))
              views)
      in
      rows :=
        [
          Measure.i n;
          Measure.f2 filtered.Measure.micros;
          Measure.f2 unfiltered.Measure.micros;
          Measure.f1 (unfiltered.Measure.micros /. filtered.Measure.micros);
        ]
        :: !rows)
    [ 10; 100; 300; 1_000 ];
  Measure.print_table
    ~title:"E6  per-append cost with n selective views"
    ~header:[ "n views"; "filtered us"; "unfiltered us"; "speedup" ]
    (List.rev !rows)
