open Chronicle_core
module Staging = Chronicle_durability.Group

type ack = {
  chronicle : string;
  count : int;
  statement : bool;
  outcome : (Seqnum.t, exn) result;
}

type t = {
  db : Db.t;
  stager : Staging.t;
  unacked : (string * int * bool * Staging.ticket) Queue.t; (* staging order *)
}

let of_db db = { db; stager = Staging.create db; unacked = Queue.create () }
let create () = of_db (Db.create ())

let db t = t.db
let stager t = t.stager
let batch t = Staging.batch t.stager
let set_batch t n = Staging.set_batch t.stager n
let flush t = Staging.flush t.stager

let append t ~statement chronicle tuples =
  let group = Group.name (Chron.group (Db.chronicle t.db chronicle)) in
  let ticket = Staging.stage t.stager ~group [ (chronicle, tuples) ] in
  Queue.add (chronicle, List.length tuples, statement, ticket) t.unacked

let acks t =
  let rec resolved acc =
    match Queue.peek_opt t.unacked with
    | None -> List.rev acc
    | Some (chronicle, count, statement, ticket) -> (
        match Staging.resolved ticket with
        | None -> List.rev acc
        | Some outcome ->
            ignore (Queue.pop t.unacked);
            resolved ({ chronicle; count; statement; outcome } :: acc))
  in
  resolved []
