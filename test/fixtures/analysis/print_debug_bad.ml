(* print-debug fixture: direct stdout printing from library-style code,
   one call per line. *)

let log msg = print_endline msg
let show msg = print_string msg
let report n = Printf.printf "%d\n" n
