open Chronicle_core

type t = { view : View.t }

let create ?index def = { view = View.create ?index def }

let on_batch t ~sn ~batch =
  View.apply t.view (Delta.stream (View.plan t.view) ~sn (Delta.appended batch))

let view t = t.view
let lookup t key = View.lookup t.view key
