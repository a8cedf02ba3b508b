(** Source-level lint rule metadata: name, severity, message, hint and
    allowlist. Matching is syntactic and lives in {!Ast_rules}; adding a
    rule is one entry in {!builtin} plus one [Ast_rules] match arm. *)

type rule = {
  name : string;          (** registry check name, e.g. ["phys-equality"] *)
  severity : Diagnostics.severity;
  message : string;
  hint : string option;
  allow : string list;
      (** path fragments exempt from this rule (documented legit uses);
          matched on whole path components, trailing ['/'] = directory only *)
}

(** Does the allowlist exempt this path? Fragments match contiguous whole
    path components ("expr.ml" exempts [lib/expr/expr.ml] but not
    [lib/expr/expr.ml.bak]); a trailing ['/'] restricts the fragment to
    directories (["bin/"] exempts [bin/x.ml] but not a file named [bin]). *)
val allowed : rule -> string -> bool

(** The built-in float-soundness and hygiene rules. *)
val builtin : rule list
