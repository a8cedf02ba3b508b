(** Type-aware refinements of the layer-2/3 rules.

    The Parsetree rules cannot see types, so rules like phys-equality
    are all-or-nothing per file. With the typed trees of {!Cmt_index}
    the exemptions become semantic: [==]/[!=] applied to hash-consed
    {!Expr.t} values is a documented O(1) identity test (PR-5), and only
    those exact call sites are exempt — a [==] on floats three lines
    down still fails the lint. *)

(** Every (source path, line) at which a physical-equality operator is
    applied to operands of type [Expr.t]. Sorted, duplicates removed;
    paths are repo-relative as recorded in the cmt
    ([lib/expr/expr.ml]). Feed to {!Ast_lint.lint_files} as
    [?phys_eq_allow]. *)
val expr_phys_eq_allow : Cmt_index.t -> (string * int) list
