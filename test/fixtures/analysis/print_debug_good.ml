(* print-debug fixture: formatting to a caller-supplied formatter, or to
   a string, stays silent; so does a "print_endline" in a string. *)

let pp_count ppf n = Format.fprintf ppf "%d" n
let describe n = Printf.sprintf "%d items" n
let note = "print_endline is for executables"
