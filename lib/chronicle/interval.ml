
type t = { start : Seqnum.chronon; stop : Seqnum.chronon }

let make ~start ~stop =
  if start >= stop then
    invalid_arg
      (Printf.sprintf "Interval.make: empty interval [%d, %d)" start stop);
  { start; stop }

let width t = t.stop - t.start
let contains t c = t.start <= c && c < t.stop
let overlaps a b = a.start < b.stop && b.start < a.stop
let before t c = t.stop <= c

let compare a b =
  let c = Int.compare a.start b.start in
  if c <> 0 then c else Int.compare a.stop b.stop

let equal a b = compare a b = 0
let pp ppf t = Format.fprintf ppf "[%d, %d)" t.start t.stop
