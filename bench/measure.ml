(* Measurement kit for the experiment harness: wall-clock timing plus
   the engine's operation counters, and fixed-width table printing. *)

open Relational

let now () = Unix.gettimeofday ()

(* Median wall-clock time of [runs] executions of [f], in seconds. *)
let median_time ?(runs = 5) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = now () in
        f ();
        now () -. t0)
  in
  let sorted = List.sort Float.compare samples in
  List.nth sorted (runs / 2)

(* First quartile, median and third quartile of a non-empty sample
   (nearest rank). *)
let quartiles samples =
  let a = Array.of_list (List.sort Float.compare samples) in
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

type per_op = {
  micros : float; (* wall micro-seconds per operation *)
  counters : (Stats.counter * float) list; (* per-operation counter deltas *)
}

(* Run [op] [times] times; report wall time and counters per call. *)
let per_op ?(times = 200) op =
  let before = Stats.snapshot () in
  let t0 = now () in
  for i = 0 to times - 1 do
    op i
  done;
  let elapsed = now () -. t0 in
  let after = Stats.snapshot () in
  let n = float_of_int times in
  {
    micros = elapsed /. n *. 1e6;
    counters =
      List.map (fun (c, d) -> (c, float_of_int d /. n)) (Stats.diff before after);
  }

let counter r c =
  match List.assoc_opt c r.counters with Some v -> v | None -> 0.

(* ---- table printing ---- *)

let rule width = String.make width '-'

let print_table ~title ~header rows =
  let columns = List.length header in
  let widths = Array.make columns 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) header;
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let pad i s = Printf.sprintf "%*s" widths.(i) s in
  let total = Array.fold_left ( + ) 0 widths + (3 * (columns - 1)) in
  Printf.printf "\n%s\n%s\n" title (rule (max total (String.length title)));
  print_endline (String.concat " | " (List.mapi pad header));
  print_endline (rule total);
  List.iter (fun row -> print_endline (String.concat " | " (List.mapi pad row))) rows;
  flush stdout

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v
let i v = string_of_int v

(* ---- machine-readable evidence ----

   Hand-rolled JSON (no external deps).  Experiments append rows and
   flush them to a BENCH_*.json file in the working directory; recorded
   evidence is committed under bench/results/. *)

type json =
  | J_str of string
  | J_int of int
  | J_float of float
  | J_obj of (string * json) list
  | J_arr of json list

let rec emit_json buf = function
  | J_str s ->
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | J_int n -> Buffer.add_string buf (string_of_int n)
  | J_float v ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" v)
      else Buffer.add_string buf (Printf.sprintf "%.6g" v)
  | J_obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          emit_json buf (J_str k);
          Buffer.add_string buf ": ";
          emit_json buf v)
        fields;
      Buffer.add_char buf '}'
  | J_arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          emit_json buf v)
        items;
      Buffer.add_char buf ']'

let json_counters counters =
  J_obj
    (List.map (fun (c, v) -> (Stats.counter_name c, J_float v)) counters)

(* One JSON record per measured operating point: the operation name, the
   swept size [n], wall micro-seconds per op, and per-op counter deltas. *)
let json_of_per_op ~op ~n r =
  J_obj
    [
      ("op", J_str op);
      ("n", J_int n);
      ("micros_per_op", J_float r.micros);
      ("counters", json_counters r.counters);
    ]

(* The leading record of a results file: the core count the numbers
   were measured on (no parallel speedup is claimable at 1). *)
let hardware_json () =
  let cores = Domain.recommended_domain_count () in
  J_obj
    [
      ("hardware_cores", J_int cores);
      ( "hardware_note",
        J_str
          (Printf.sprintf "%d recommended domain(s); %s, %d-bit" cores
             Sys.os_type Sys.word_size) );
    ]

let write_json ~file rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  ";
      emit_json buf row)
    rows;
  Buffer.add_string buf "\n]\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d records)\n%!" file (List.length rows)

let section title doc =
  Printf.printf "\n==== %s ====\n%s\n" title doc;
  flush stdout

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt
