(* obj-magic fixture: every escape hatch out of the type system fires,
   one per line. *)

let coerce x = Obj.magic x
let boxed x = Obj.repr x
let unboxed r = Obj.obj r
