open Chronicle_core
module Staging = Chronicle_durability.Group

type t = { db : Db.t; stager : Staging.t }

let of_db db = { db; stager = Staging.create db }
let create () = of_db (Db.create ())

let db t = t.db
let stager t = t.stager
let batch t = Staging.batch t.stager
let set_batch t n = Staging.set_batch t.stager n
let flush t = Staging.flush t.stager
