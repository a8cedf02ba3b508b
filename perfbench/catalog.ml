(* The benchmark's metrics: the end-to-end ones (reported with tracing
   off, each with the regression bound BENCHMARK.json fixes) and the
   per-layer ones of the traced run, each with the layer it measures, the
   end-to-end metric and workload it should move, and the workload where
   it should stay flat. BENCHMARK.json lists the same names, units and
   directions; the tests hold the two together. *)

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

type end_to_end = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (* share of the parent's median it may worsen by *)
  doc : string;
}

type per_layer = {
  lname : string;
  lunit : string;
  lbetter : better;
  layer : string;    (* layer name and the modules behind it *)
  moves : string;    (* end-to-end metric and workload it should move *)
  flat_on : string;  (* workload where it should stay flat *)
}

(* Algorithm 1 and Algorithm 2 do a seed-dependent amount of work (the
   seeded warm start sets the convergence iterations), so the time to a
   certified controller and to X_I are reported per verifier call, the
   unit of the paper's Table 2, averaged over the designs; totals and
   counts are printed in the report lines and measured per layer by the
   traced run. *)
let end_to_end =
  [
    { name = "certify_ms_per_call"; unit_ = "ms"; better = Lower; bound = 0.25;
      doc = "Algorithm 1 plus final verification wall time per verifier call, mean over designs of the median over repetitions" };
    { name = "initset_ms_per_call"; unit_ = "ms"; better = Lower; bound = 0.25;
      doc = "Algorithm 2 wall time (all passes) per verifier call, mean over designs of the median over repetitions" };
    { name = "simulate_s"; unit_ = "s"; better = Lower; bound = 0.25;
      doc = "Monte-Carlo SC/GR rollouts wall time, summed over certified designs" };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25;
      doc = "pool creation, warm-start generation, cert stores and warm-up call" };
    { name = "coverage"; unit_ = "ratio"; better = Higher; bound = 0.2;
      doc = "mean |X_I|/|X_0| of the final Algorithm 2 pass" };
    { name = "sc_pct"; unit_ = "%"; better = Higher; bound = 0.05;
      doc = "Monte-Carlo safe-control rate, mean over certified designs" };
    { name = "gr_pct"; unit_ = "%"; better = Higher; bound = 0.05;
      doc = "Monte-Carlo goal-reaching rate, mean over certified designs" };
  ]

let l lname lunit lbetter layer moves flat_on = { lname; lunit; lbetter; layer; moves; flat_on }

let learner = "core.learner (Learner, Metrics)"
let initset = "core.initset (Initset)"
let verifier = "reach.verifier (Verifier, Robust_verify ladder)"
let linear = "reach.linear (Linear_reach)"
let taylor = "reach.taylor (Taylor_reach, lib/taylor, lib/poly, Lie tables of lib/expr)"
let nn = "reach.nn (Nn_reach_taylor, Nn_reach_bernstein)"
let cert = "cert (Cert_cache, Cert_check)"
let evaluate = "core.evaluate (Evaluate, Rk4, controller forward)"
let parallel = "parallel (Pool)"
let gc = "gc (OCaml runtime)"
let trace = "trace (this benchmark's span recorder)"

let per_layer =
  let cert_acc = "certify_ms_per_call on acc-design" in
  let cert_nn = "certify_ms_per_call on nn-design" in
  let init_deep = "initset_ms_per_call on initset-deepen" in
  let both_design = "certify_ms_per_call on acc-design and nn-design, " ^ init_deep in
  let nn_and_deep = cert_nn ^ ", " ^ init_deep in
  [
    l "learner.iters" "count" Lower learner cert_acc "nn-design";
    l "learner.self_s" "s" Lower learner cert_acc "nn-design";
    l "learner.skipped_probes" "count" Lower learner cert_acc "nn-design";
    l "initset.cells" "count" Lower initset init_deep "acc-design, nn-design";
    l "initset.verified_cells" "count" Higher initset init_deep "acc-design, nn-design";
    l "initset.rejected_cells" "count" Lower initset init_deep "acc-design, nn-design";
    l "initset.useful_ratio" "ratio" Higher initset init_deep "acc-design, nn-design";
    l "initset.self_s" "s" Lower initset init_deep "acc-design, nn-design";
    l "verifier.calls" "count" Lower verifier both_design "none";
    l "verifier.busy_s" "s" Lower verifier both_design "none";
    l "verifier.call_p50_ms" "ms" Lower verifier both_design "none";
    l "verifier.call_tail_ms" "ms" Lower verifier both_design "none";
    l "verifier.call_tail_pct" "%" Higher verifier "none (names the tail percentile)" "all";
    l "verifier.fallback_calls" "count" Lower verifier both_design "none";
    l "verifier.failed_calls" "count" Lower verifier both_design "none";
    l "verifier.diverged_calls" "count" Lower verifier both_design "none";
    l "linear.flowpipes" "count" Lower linear cert_acc "nn-design, initset-deepen (zero)";
    l "taylor.steps" "count" Lower taylor nn_and_deep "acc-design";
    l "taylor.step_s" "s" Lower taylor nn_and_deep "acc-design";
    l "taylor.coeffs_s" "s" Lower taylor nn_and_deep "acc-design";
    l "taylor.picard_s" "s" Lower taylor nn_and_deep "acc-design";
    l "taylor.range_s" "s" Lower taylor nn_and_deep "acc-design";
    l "taylor.lie_build_s" "s" Lower taylor "setup_s on nn-design" "acc-design";
    l "taylor.warm_hits" "count" Higher taylor nn_and_deep "acc-design";
    l "taylor.warm_ratio" "ratio" Higher taylor nn_and_deep "acc-design";
    l "nn.polar_abstractions" "count" Lower nn nn_and_deep "acc-design";
    l "nn.bernstein_abstractions" "count" Lower nn cert_nn "acc-design, initset-deepen";
    l "nn.abstraction_s" "s" Lower nn nn_and_deep "acc-design";
    l "cert.hits" "count" Higher cert init_deep "acc-design, nn-design (zero)";
    l "cert.misses" "count" Lower cert init_deep "acc-design, nn-design (zero)";
    l "cert.stores" "count" Lower cert init_deep "acc-design, nn-design (zero)";
    l "cert.rejects" "count" Lower cert init_deep "acc-design, nn-design (zero)";
    l "cert.fast_hits" "count" Higher cert init_deep "acc-design, nn-design (zero)";
    l "cert.hit_ratio" "ratio" Higher cert init_deep "acc-design, nn-design (zero)";
    l "cert.check_s" "s" Lower cert init_deep "acc-design, nn-design (zero)";
    l "evaluate.rollouts" "count" Lower evaluate "simulate_s on acc-design" "nn-design";
    l "evaluate.busy_s" "s" Lower evaluate "simulate_s on acc-design" "nn-design";
    l "evaluate.rollouts_per_s" "1/s" Higher evaluate "simulate_s on acc-design" "nn-design";
    l "evaluate.controller_evals" "count" Lower evaluate "simulate_s on acc-design" "nn-design";
    l "pool.domains" "count" Higher parallel cert_acc "none";
    l "pool.fanout_util" "ratio" Higher parallel cert_acc "nn-design (coarse)";
    l "gc.minor_mwords" "Mwords" Lower gc "simulate_s on acc-design, certify_ms_per_call on nn-design" "none";
    l "gc.major_collections" "count" Lower gc "simulate_s on acc-design, certify_ms_per_call on nn-design" "none";
    l "gc.peak_rss_mb" "MB" Lower gc "none (memory, not time)" "none";
    l "trace.spans" "count" Lower trace "none (traced run only)" "all";
    l "trace.overhead_s" "s" Lower trace "none (traced minus untraced wall)" "all";
  ]

(* Names as BENCHMARK.json admits them. *)
let valid_name s =
  let ok_char c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  let alnum c = match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  String.length s >= 1 && String.length s <= 64 && alnum s.[0] && String.for_all ok_char s

let max_end_to_end = 16
let max_per_layer = 128

(* Problems with the catalog itself: bad or repeated names, too many
   metrics, bounds outside (0, 0.25]. Empty when the catalog is valid. *)
let problems () =
  let names = List.map (fun m -> m.name) end_to_end @ List.map (fun m -> m.lname) per_layer in
  let bad = List.filter (fun n -> not (valid_name n)) names in
  let dups =
    List.filter (fun n -> List.length (List.filter (String.equal n) names) > 1) names
  in
  List.map (fun n -> "invalid metric name " ^ n) bad
  @ List.map (fun n -> "repeated metric name " ^ n) (List.sort_uniq compare dups)
  @ (if List.length end_to_end > max_end_to_end then [ "too many end-to-end metrics" ]
     else [])
  @ (if List.length per_layer > max_per_layer then [ "too many per-layer metrics" ] else [])
  @ List.filter_map
      (fun m ->
        if m.bound > 0.0 && m.bound <= 0.25 then None
        else Some ("bound out of range for " ^ m.name))
      end_to_end
  @ (if List.exists (fun m -> m.name = "setup_s") end_to_end then [] else [ "no setup_s" ])
