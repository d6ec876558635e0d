open Relational

let account_schema =
  Schema.make
    [ ("acct", Value.TInt); ("name", Value.TStr); ("branch", Value.TStr) ]

let txn_schema =
  Schema.make
    [ ("acct", Value.TInt); ("kind", Value.TStr); ("amount", Value.TFloat) ]

let branches = [| "chelsea"; "soho"; "hoboken"; "princeton"; "newark" |]

let accounts rng ~n =
  List.init n (fun i ->
      let acct = i + 1 in
      Tuple.make
        [
          Value.Int acct;
          Value.Str (Printf.sprintf "holder-%05d" acct);
          Value.Str (Rng.pick rng branches);
        ])

let txn rng zipf =
  let acct = Zipf.sample zipf rng in
  let withdrawal = Rng.int rng 3 < 2 in
  let magnitude = 5. +. Rng.float rng 495. in
  let kind, amount =
    if withdrawal then ("withdrawal", -.magnitude) else ("deposit", magnitude)
  in
  Tuple.make [ Value.Int acct; Value.Str kind; Value.Float amount ]

(* A whole key stream at once: [n] transactions whose account keys
   follow the given Zipf law (s = 0 degenerates to uniform) — the
   key-join oracle property's driver. *)
let txn_stream rng zipf ~n = List.init n (fun _ -> txn rng zipf)
