(* End-to-end DwV design benchmark.

     main.exe --workload acc-design|nn-design|initset-deepen
              --seed N --seconds S --trace 0|1

   Runs the paper's pipeline on the workload's seeded inputs, checks
   the outputs, prints a report and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones (median over the repetitions that fit
   in S seconds); with --trace 1 the run makes one untraced and one
   traced repetition and reports the per-layer metrics of the traced one.
   Exits 1 when a correctness check or shape guard fails. *)

module W = Workloads
module Catalog = Perfbench.Catalog
module Summary = Perfbench.Summary
module Trace = Perfbench.Trace
module Pool = Dwv_parallel.Pool
module Phases = Dwv_util.Phases

let now = Dwv_util.Mono.now

(* Scratch space inside the checkout: certificate stores and the span
   file of the traced run. *)
let work_dir = "_perfbench"

(* Set-up is repeated at least [setup_rounds] times and for at least
   [setup_min_s] seconds; [setup_s] is the median round. acc-design's
   set-up takes under a millisecond, so a handful of rounds would time
   scheduler noise; spreading the rounds over two seconds keeps a short
   slow spell of a shared host from setting the median. *)
let setup_rounds = 5
let setup_min_s = 2.0

let usage () =
  prerr_endline
    "usage: main.exe --workload acc-design|nn-design|initset-deepen --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10 and trace = ref false in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: s :: rest -> seed := int_of s; go rest
    | "--seconds" :: s :: rest -> seconds := int_of s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some w when List.mem w W.names && !seconds >= 1 -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ensure_dir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* VmHWM in MB; the major heap's peak where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
          | Some _ -> scan ()
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* One domain. On a shared 2-vCPU virtual machine, two domains spread
   the same seed's certify_ms_per_call by 30% from run to run (steal time
   on one vCPU stalls both domains at each stop-the-world minor
   collection), against 1% with one; the pool's fan-out path still runs,
   sequentially in the caller. *)
let domains = 1

(* Set-up: pool creation, warm-start generation (NN pretraining),
   certificate-store creation and the warm-up verification. The last
   round's plan is used. *)
let setup name ~seed =
  ensure_dir work_dir;
  let start = now () in
  let rec go k times =
    remove_tree (Filename.concat work_dir "certs");
    ensure_dir (Filename.concat work_dir "certs");
    let t0 = now () in
    let pool = Pool.create ~domains () in
    let plan = W.plan_of ~work_dir name ~seed in
    W.warm_up ~pool plan;
    let dt = now () -. t0 in
    Pool.shutdown pool;
    if k >= setup_rounds && now () -. start >= setup_min_s then (plan, List.rev (dt :: times))
    else go (k + 1) (dt :: times)
  in
  go 1 []

type measured = {
  rep : W.rep;
  ctx : W.ctx;
  minor_words : float;
  major_collections : int;
  phases : (string * float) list;  (* phase seconds accrued in the repetition *)
}

(* One repetition on a pool of its own, so that the GC statistics read
   after the pool is joined cover exactly this repetition's domains. *)
let measure ?trace plan =
  W.reset_stores plan;
  let g0 = Gc.quick_stat () and p0 = Phases.snapshot () in
  let pool = Pool.create ~domains () in
  let ctx = W.context ?trace pool in
  let rep = Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> W.run_rep ctx plan) in
  let g1 = Gc.quick_stat () in
  let phases =
    List.map
      (fun (k, v) -> (k, v -. Option.value ~default:0.0 (List.assoc_opt k p0)))
      (Phases.snapshot ())
  in
  {
    rep;
    ctx;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    phases;
  }

(* ---- per-layer metrics of the traced repetition ----------------- *)

let layer_metrics m ~spans ~lie_build_s ~overhead_s =
  let rep = m.rep in
  let named n = List.filter (fun s -> s.Trace.name = n) spans in
  let self_of n =
    W.sumf (fun s -> Trace.self_time ~children:(Trace.children_of spans s) s) (named n)
  in
  let calls = named "verifier.call" in
  let call_ms = Array.of_list (List.map (fun s -> 1000.0 *. Trace.duration s) calls) in
  let call_summary = Summary.of_samples call_ms in
  let tail_pct, tail_ms =
    match call_summary.Summary.tail with
    | Some (q, v) -> (float_of_int q /. 10.0, v)
    | None -> (100.0, snd (Dwv_util.Stats.min_max call_ms))
  in
  let phase k = Option.value ~default:0.0 (List.assoc_opt k m.phases) in
  let c k = float_of_int (W.count rep k) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let passes = W.all_passes rep in
  let cells = float_of_int (W.sum (fun p -> p.W.result.W.Initset.verifier_calls) passes) in
  let verified =
    float_of_int (W.sum (fun p -> List.length p.W.result.W.Initset.verified) passes)
  in
  let batches = named "learner.learn" @ named "initset.search" in
  let batch_ids = List.map (fun s -> s.Trace.id) batches in
  let in_batch = List.filter (fun s -> List.mem s.Trace.parent batch_ids) calls in
  let rollouts = float_of_int (W.sum (fun r -> r.W.Evaluate.n) (W.all_rates rep)) in
  let eval_busy = W.sumf Trace.duration (named "evaluate.rates") in
  let hits = c "cache_hits" and misses = c "cache_misses" in
  let get a = float_of_int (Atomic.get a) in
  [
    ("learner.iters", float_of_int (W.ci rep));
    ("learner.self_s", self_of "learner.learn");
    ( "learner.skipped_probes",
      float_of_int (W.sum (fun d -> d.W.learned.W.Learner.skipped_probes) rep.W.designs) );
    ("initset.cells", cells);
    ("initset.verified_cells", verified);
    ( "initset.rejected_cells",
      float_of_int (W.sum (fun p -> List.length p.W.result.W.Initset.rejected) passes) );
    ("initset.useful_ratio", ratio verified cells);
    ("initset.self_s", self_of "initset.search");
    ("verifier.calls", float_of_int (List.length calls));
    ("verifier.busy_s", W.sumf Trace.duration calls);
    ("verifier.call_p50_ms", call_summary.Summary.median);
    ("verifier.call_tail_ms", tail_ms);
    ("verifier.call_tail_pct", tail_pct);
    ("verifier.fallback_calls", get m.ctx.W.fallback);
    ("verifier.failed_calls", get m.ctx.W.failed);
    ("verifier.diverged_calls", get m.ctx.W.diverged);
    ("linear.flowpipes", c "linear_flowpipes");
    ("taylor.steps", c "taylor_steps");
    ("taylor.step_s", phase "taylor_step");
    ("taylor.coeffs_s", phase "taylor_step/coeffs");
    ("taylor.picard_s", phase "taylor_step/picard");
    ("taylor.range_s", phase "taylor_step/range");
    ("taylor.lie_build_s", lie_build_s);
    ("taylor.warm_hits", c "warm_hits");
    ("taylor.warm_ratio", ratio (c "warm_hits") (c "taylor_steps"));
    ("nn.polar_abstractions", c "polar_abstractions");
    ("nn.bernstein_abstractions", c "bernstein_abstractions");
    ("nn.abstraction_s", phase "nn_abstraction");
    ("cert.hits", hits);
    ("cert.misses", misses);
    ("cert.stores", c "cache_stores");
    ("cert.rejects", c "cache_rejects");
    ("cert.fast_hits", c "cache_fast_hits");
    ("cert.hit_ratio", ratio hits (hits +. misses));
    ("cert.check_s", phase "cert_check");
    ("evaluate.rollouts", rollouts);
    ("evaluate.busy_s", eval_busy);
    ("evaluate.rollouts_per_s", ratio rollouts eval_busy);
    ( "evaluate.controller_evals",
      match m.ctx.W.evals with Some k -> get k | None -> 0.0 );
    ("pool.domains", float_of_int domains);
    ( "pool.fanout_util",
      ratio (W.sumf Trace.duration in_batch)
        (W.sumf Trace.duration batches *. float_of_int domains) );
    ("gc.minor_mwords", m.minor_words /. 1e6);
    ("gc.major_collections", float_of_int m.major_collections);
    ("gc.peak_rss_mb", peak_rss_mb ());
    ("trace.spans", float_of_int (List.length spans));
    ("trace.overhead_s", overhead_s);
  ]

(* ---- output ----------------------------------------------------- *)

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let entry (name, unit_, v) =
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit_
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", " (List.map entry metrics));
  print_newline ()

let write_spans ~name ~seed spans =
  let path = Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.jsonl" name seed) in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun s -> output_string oc (Trace.to_json s ^ "\n")) spans);
  path

let timing_line label ~unit_ samples =
  Printf.printf "  %-20s %s\n" label
    (Summary.to_string ~unit_ (Summary.of_samples (Array.of_list samples)))

let run name ~seed ~seconds ~traced =
  let plan, setup_times = setup name ~seed in
  let lie_build_s = Phases.seconds (Phases.phase "lie_table_build") in
  let measured, tr =
    if traced then begin
      let untraced = measure plan in
      let tr = Trace.create () in
      [ untraced; measure ~trace:tr plan ], Some tr
    end
    else begin
      let t0 = now () in
      let rec go acc =
        let m = measure plan in
        if now () -. t0 >= float_of_int seconds then List.rev (m :: acc) else go (m :: acc)
      in
      (go [], None)
    end
  in
  let first = (List.hd measured).rep in
  let problems =
    List.concat_map (fun m -> W.problems m.rep) measured
    @ W.shape_problems name first
    @ List.filter_map
        (fun m ->
          if W.fingerprint m.rep = W.fingerprint first then None
          else Some "repetitions disagree on verdicts, CI, calls, coverage or counters")
        measured
    @ Catalog.problems ()
  in
  let tasks = List.length plan.W.tasks in
  let attempted = tasks * List.length measured in
  let failed =
    min attempted (W.sum (fun m -> W.failed_tasks m.rep) measured + List.length problems)
  in
  let correct = problems = [] in
  let over f = List.map (fun m -> f m.rep) measured in
  Printf.printf "perfbench %s seed=%d trace=%d domains=%d repetitions=%d tasks=%d\n" name seed
    (if traced then 1 else 0) domains (List.length measured) tasks;
  timing_line "wall_s" ~unit_:"s" (over (fun r -> r.W.wall_s));
  timing_line "certify_s" ~unit_:"s" (over W.certify_s);
  timing_line "initset_s" ~unit_:"s" (over W.initset_s);
  timing_line "simulate_s" ~unit_:"s" (over W.simulate_s);
  timing_line "setup_s" ~unit_:"s" setup_times;
  let certify_ms = over (fun r -> W.certify_ms_per_call [ r ]) in
  let initset_ms = over (fun r -> W.initset_ms_per_call [ r ]) in
  timing_line "certify_ms_per_call" ~unit_:"ms" certify_ms;
  timing_line "initset_ms_per_call" ~unit_:"ms" initset_ms;
  Printf.printf
    "  ci=%d verifier_calls=%d (certify %d, initset %d) coverage=%.4f sc=%.1f%% gr=%.1f%% \
     failed_ratio=%d/%d\n"
    (W.ci first)
    (W.certify_calls first + W.initset_calls first)
    (W.certify_calls first) (W.initset_calls first) (W.coverage first) (W.sc_pct first)
    (W.gr_pct first) failed attempted;
  List.iter
    (fun d ->
      Printf.printf "  task %d %s/%s %s: ci=%d calls=%d certify_s=%.3f learner %s, final %s\n"
        d.W.task.W.id d.W.task.W.system.W.plant d.W.task.W.system.W.tool
        (W.Metrics.kind_to_string d.W.task.W.metric)
        d.W.learned.W.Learner.iterations d.W.learned.W.Learner.verifier_calls d.W.certify_s
        (W.Verifier.verdict_to_string d.W.learned.W.Learner.verdict)
        (W.Verifier.verdict_to_string d.W.final_verdict))
    first.W.designs;
  List.iter (fun p -> Printf.printf "  check failed: %s\n" p) problems;
  let median l = Dwv_util.Stats.median (Array.of_list l) in
  let metrics =
    match tr with
    | None ->
      let values =
        [
          ("certify_ms_per_call", W.certify_ms_per_call (over Fun.id));
          ("initset_ms_per_call", W.initset_ms_per_call (over Fun.id));
          ("simulate_s", median (over W.simulate_s));
          ("setup_s", median setup_times);
          ("coverage", W.coverage first);
          ("sc_pct", W.sc_pct first);
          ("gr_pct", W.gr_pct first);
        ]
      in
      List.map
        (fun (m : Catalog.end_to_end) ->
          let v = List.assoc m.name values in
          Printf.printf "  %-20s %-10.6g %-5s %s (%s is better)\n" m.name v m.unit_ m.doc
            (Catalog.better_to_string m.better);
          (m.name, m.unit_, v))
        Catalog.end_to_end
    | Some tr ->
      let spans = Trace.spans tr in
      let untraced, traced_m =
        match measured with [ a; b ] -> (a, b) | _ -> assert false
      in
      let overhead_s = traced_m.rep.W.wall_s -. untraced.rep.W.wall_s in
      let values = layer_metrics traced_m ~spans ~lie_build_s ~overhead_s in
      Printf.printf "  tracing overhead: %.3f s (traced %.3f s, untraced %.3f s); spans in %s\n"
        overhead_s traced_m.rep.W.wall_s untraced.rep.W.wall_s
        (write_spans ~name ~seed spans);
      List.map
        (fun (m : Catalog.per_layer) ->
          Printf.printf "  %-28s %-10.6g %-6s %s; moves %s; flat on %s\n" m.lname
            (List.assoc m.lname values) m.lunit m.layer m.moves m.flat_on;
          (m.lname, m.lunit, List.assoc m.lname values))
        Catalog.per_layer
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  print_result ~correct:(correct && finite) ~attempted ~failed metrics;
  correct && finite

let () =
  let name, seed, seconds, traced = parse_args () in
  let ok =
    Fun.protect
      ~finally:(fun () -> remove_tree (Filename.concat work_dir "certs"))
      (fun () -> run name ~seed ~seconds ~traced)
  in
  exit (if ok then 0 else 1)
