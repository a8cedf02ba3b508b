let parse s = float_of_string s
let parse_qualified s = Stdlib.float_of_string s
