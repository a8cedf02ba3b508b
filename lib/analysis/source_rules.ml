(* The rule table: per-rule metadata only. Which identifier occurrence
   fires which rule is decided on the Parsetree by Ast_rules.ident_rule;
   everything reported about a hit (severity, message, hint, allowlist)
   comes from here. *)

type rule = {
  name : string;
  severity : Diagnostics.severity;
  message : string;
  hint : string option;
  allow : string list;
}

(* Split a path into its components, dropping empty segments and "." so
   "./lib//expr" and "lib/expr" compare equal. Backslashes are treated as
   separators too (paths may arrive in Windows form). *)
let components path =
  String.split_on_char '\\' path
  |> List.concat_map (String.split_on_char '/')
  |> List.filter (fun c -> c <> "" && c <> ".")

let allowed rule path =
  let pcs = components path in
  List.exists
    (fun fragment ->
      (* Fragments match on whole path components, not substrings:
         "lib/expr/expr.ml" must not also exempt lib/expr/expr.ml.bak.
         A trailing '/' ("bin/") makes the fragment directory-only — it
         must match somewhere strictly above the final component. *)
      let dir_only =
        String.length fragment > 0 && fragment.[String.length fragment - 1] = '/'
      in
      let fcs = components fragment in
      let rec prefix fs ps =
        match (fs, ps) with
        | [], rest -> (not dir_only) || rest <> []
        | _, [] -> false
        | f :: fs', p :: ps' -> f = p && prefix fs' ps'
      in
      let rec at ps =
        match ps with [] -> false | _ :: rest -> prefix fcs ps || at rest
      in
      fcs <> [] && at pcs)
    rule.allow

let builtin =
  [
    {
      name = "phys-equality";
      severity = Diagnostics.Error;
      message = "physical equality (==/!=) on values; on floats and float-bearing \
                 structures it is not semantic equality";
      hint = Some "use structural/semantic equality (e.g. Float.equal, Expr.equal, =)";
      allow = [ "lib/expr/expr.ml" (* O(1) shortcut inside Expr.equal itself *) ];
    };
    {
      name = "nan-compare";
      severity = Diagnostics.Error;
      message = "comparison against nan is always false (or always true for <>)";
      hint = Some "use Float.is_nan / classify_float";
      allow = [];
    };
    {
      name = "float-of-string";
      severity = Diagnostics.Error;
      message = "bare float-of-string raises an uninformative Failure on malformed input";
      hint = Some "use float_of_string_opt and report the offending text";
      allow = [];
    };
    {
      name = "obj-magic";
      severity = Diagnostics.Error;
      message = "Obj.magic defeats the type system; enclosure soundness cannot survive it";
      hint = None;
      allow = [];
    };
    {
      name = "poly-compare";
      severity = Diagnostics.Warn;
      message = "explicit polymorphic compare; on float-bearing types prefer a typed \
                 comparison";
      hint = Some "use Float.compare / a per-type compare function";
      allow = [];
    };
    {
      name = "print-debug";
      severity = Diagnostics.Warn;
      message = "direct stdout printing from library code";
      hint = Some "return data, or take a Format formatter (Fmt) like the rest of lib/";
      allow =
        [ "bin/"; "bench/"; "test/"; "examples/";
          "lib/util/table.ml" (* Table.print is the module's documented purpose *) ];
    };
  ]
