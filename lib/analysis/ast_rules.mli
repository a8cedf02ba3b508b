(** The layer-2 source rules (phys-equality, nan-compare,
    float-of-string, obj-magic, poly-compare, print-debug), matched on
    the Parsetree. Rule metadata — severity, message, hint, allowlist —
    comes from {!Source_rules}. *)

val lint_parsed : ?rules:Source_rules.rule list -> Src_ast.parsed -> Diagnostics.t list
(** Run the rules over one parsed file. Rules missing from [rules] are
    skipped. *)
