(** Source lint driver: parses every implementation with the compiler
    front end and runs the AST-backed rules ({!Ast_rules}) plus the
    layer-3 analyses ({!Domain_safety}, {!Exn_escape}). Interfaces carry
    no expressions and only take part in the missing-[.mli] check. An
    implementation the parser rejects gets an [ast-parse] error: no rule
    could run on it, so it must not pass the gate silently. *)

val lint_files : ?phys_eq_allow:(string * int) list -> string list -> Diagnostics.t list
(** Lint the given files (missing-[.mli] check included), sorted by
    location. [phys_eq_allow] is the typed exemption list from
    {!Typed_rules.expr_phys_eq_allow}: when given, the phys-equality
    rule's static per-file allowlist is dropped and instead exactly
    those (path, line) sites are exempt. *)

val lint_tree :
  ?phys_eq_allow:(string * int) list -> ?exclude:string list -> string list ->
  Diagnostics.t list
(** [lint_files] over {!Source_lint.collect_tree}. *)
