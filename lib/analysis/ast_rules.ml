(* The layer-2 source rules, matched on identifier occurrences in the
   Parsetree: a `==` in a comment, a string banner, or an operator-shaped
   fragment inside a longer token can never fire, and several hits on
   one line are all reported.

   The rule *metadata* (name, severity, message, hint, allowlist) lives
   in Source_rules; this module only decides which occurrence fires
   which rule (ident_rule, plus the nan-compare application match). *)

module D = Diagnostics

let nan_idents = [ "nan"; "Float.nan" ]

let comparison_ops = [ "="; "<"; ">"; "<="; ">="; "<>" ]

(* Which rule an identifier occurrence fires. [raw] is the identifier as
   written; [norm] has a leading [Stdlib.] stripped. poly-compare keys on
   the raw spelling: the rule is about *explicitly qualified* polymorphic
   compare, a bare [compare] is ubiquitous and often shadowed. *)
let ident_rule ~raw ~norm =
  match norm with
  | "==" | "!=" -> Some "phys-equality"
  | "float_of_string" | "Float.of_string" -> Some "float-of-string"
  | "Obj.magic" | "Obj.repr" | "Obj.obj" -> Some "obj-magic"
  | "print_endline" | "print_string" | "Printf.printf" -> Some "print-debug"
  | _ -> (
    match raw with
    | "Stdlib.compare" | "Pervasives.compare" | "Stdlib.Pervasives.compare" ->
      Some "poly-compare"
    | _ -> None)

let lint_parsed ?(rules = Source_rules.builtin) (file : Src_ast.parsed) =
  let path = file.Src_ast.path in
  let rule_by_name name =
    List.find_opt (fun (r : Source_rules.rule) -> r.Source_rules.name = name) rules
  in
  let ds = ref [] in
  let emit name loc =
    match rule_by_name name with
    | None -> () (* caller restricted the rule set: stay consistent with it *)
    | Some rule ->
      if not (Source_rules.allowed rule path) then
        ds :=
          D.make rule.Source_rules.severity ~check:rule.Source_rules.name
            ~loc:(Src_ast.file_loc ~path loc)
            rule.Source_rules.message ?hint:rule.Source_rules.hint
          :: !ds
  in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; loc } -> (
            let raw = Src_ast.name_of txt in
            match ident_rule ~raw ~norm:(Ast_index.normalize_name raw) with
            | Some rule -> emit rule loc
            | None -> ())
          | Parsetree.Pexp_apply
              ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { txt; loc }; _ }, args) ->
            let op = Ast_index.normalize_name (Src_ast.name_of txt) in
            if List.mem op comparison_ops then begin
              let arg_is_nan (_, (a : Parsetree.expression)) =
                match a.Parsetree.pexp_desc with
                | Parsetree.Pexp_ident { txt; _ } ->
                  List.mem (Ast_index.normalize_name (Src_ast.name_of txt)) nan_idents
                | _ -> false
              in
              if List.exists arg_is_nan args then emit "nan-compare" loc
            end
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  iter.structure iter file.Src_ast.ast;
  List.rev !ds
