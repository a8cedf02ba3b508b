(* Source lint driver.

   Every implementation is parsed with the compiler front end and run
   through three stages: the AST-backed rules (Ast_rules), the
   domain-safety race lint and the exception-escape analysis (both
   queries over one Ast_index built from every file that parsed).
   Interfaces carry no expressions to analyze. An implementation the
   parser rejects gets an [ast-parse] error: none of the rules could run
   on it, so the gate must not stay green. *)

module D = Diagnostics

let is_impl path = Filename.check_suffix path ".ml"

(* One file through the engine. Returns its diagnostics and, when it
   parsed, the Parsetree for the index. *)
let ast_one ~rules path =
  if not (is_impl path) then ([], None)
  else
    match Src_ast.parse_file path with
    | Ok parsed -> (Ast_rules.lint_parsed ~rules parsed, Some parsed)
    | Error msg ->
      ( [
          D.error ~check:Registry.ast_parse
            ~loc:(D.File { path; line = 1; col = 1 })
            (Fmt.str "not parseable by the compiler front end (%s); no rule ran \
                      on this file"
               msg)
            ~hint:"fix the syntax error, or --exclude the file if it is \
                   deliberately invalid";
        ],
        None )

(* The typed phys-equality exemption. [allow] holds (path, line) pairs
   from Typed_rules.expr_phys_eq_allow; paths are normalized
   component-wise so "./lib/x.ml" and "lib/x.ml" agree. *)
let norm_path path =
  String.split_on_char '/' path
  |> List.filter (fun c -> c <> "" && c <> ".")
  |> String.concat "/"

let phys_eq_rule = "phys-equality"

let apply_phys_eq_allow ~phys_eq_allow ds =
  match phys_eq_allow with
  | None -> ds
  | Some allow ->
    let exempt path line =
      List.exists (fun (p, l) -> l = line && norm_path p = norm_path path) allow
    in
    List.filter
      (fun (d : D.t) ->
        match d.D.loc with
        | D.File { path; line; _ } ->
          not (d.D.check = phys_eq_rule && exempt path line)
        | D.Model _ -> true)
      ds

(* With a typed allowlist in force, the static per-file suppression on
   the phys-equality rule is superseded: drop it so non-exempt [==] in
   an allowlisted file resurface. *)
let effective_rules ~phys_eq_allow rules =
  match phys_eq_allow with
  | None -> rules
  | Some _ ->
    List.map
      (fun (r : Source_rules.rule) ->
        if r.Source_rules.name = phys_eq_rule then { r with Source_rules.allow = [] }
        else r)
      rules

let lint_files ?phys_eq_allow files =
  let rules = effective_rules ~phys_eq_allow Source_rules.builtin in
  let parsed = ref [] in
  let ds =
    List.concat_map
      (fun path ->
        let file_ds, p = ast_one ~rules path in
        Option.iter (fun p -> parsed := p :: !parsed) p;
        Source_lint.missing_mli_check path
        @ apply_phys_eq_allow ~phys_eq_allow file_ds)
      files
  in
  let index = Ast_index.of_files (List.rev !parsed) in
  D.sort (ds @ Domain_safety.analyze index @ Exn_escape.analyze index)

let lint_tree ?phys_eq_allow ?exclude roots =
  lint_files ?phys_eq_allow (Source_lint.collect_tree ?exclude roots)
