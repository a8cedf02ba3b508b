(* obj-magic fixture: typed conversions and mentions of Obj.magic in
   comments or strings stay silent. *)

let coerce x = Float.of_int x
let note = "never use Obj.magic here"
let magic x = x + 1
