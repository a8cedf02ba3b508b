(* Determinism suite for the domain pool (the `@parallel` alias): the
   tentpole claim is that every fan-out site — gradient probes, frontier
   cells, Monte-Carlo rollouts — returns bit-identical results at any
   domain count. Each test runs the same workload at domains 1 (the
   sequential oracle: no workers are spawned) and at 2 or 4, and compares
   exactly, never with a tolerance. *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Mlp = Dwv_nn.Mlp
module Activation = Dwv_nn.Activation
module Rng = Dwv_util.Rng
module Verifier = Dwv_reach.Verifier
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Learner = Dwv_core.Learner
module Metrics = Dwv_core.Metrics
module Initset = Dwv_core.Initset
module Evaluate = Dwv_core.Evaluate
module Pool = Dwv_parallel.Pool
module Expr = Dwv_expr.Expr
module Fault = Dwv_robust.Fault
module Flowpipe = Dwv_reach.Flowpipe
module Taylor_reach = Dwv_reach.Taylor_reach
module Warm = Dwv_reach.Warm
module Acc = Dwv_systems.Acc
module Oscillator = Dwv_systems.Oscillator
module Threed = Dwv_systems.Threed

(* ---------------- pool mechanics ---------------- *)

let test_map_empty () =
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "empty batch" [||] (Pool.map pool (fun x -> x + 1) [||]))

let test_map_single_item () =
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "one item" [| 42 |] (Pool.map pool (fun x -> x * 2) [| 21 |]))

let test_map_fewer_items_than_domains () =
  Pool.with_pool ~oversubscribe:true ~domains:8 (fun pool ->
      Alcotest.(check (array int)) "2 items on 8 domains" [| 1; 4 |]
        (Pool.map pool (fun x -> x * x) [| 1; 2 |]))

let test_map_order_preserved () =
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      let items = Array.init 100 (fun i -> i) in
      Alcotest.(check (array int)) "item order, not completion order"
        (Array.map (fun i -> 3 * i) items)
        (Pool.map pool (fun i -> 3 * i) items))

let test_mapi_passes_index () =
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "index + item" [| 10; 21; 32 |]
        (Pool.mapi pool (fun i x -> x + i) [| 10; 20; 30 |]))

let test_sequential_pool_is_plain_map () =
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "no extra domains" 1 (Pool.domains pool);
      Alcotest.(check (array int)) "plain map" [| 2; 4; 6 |]
        (Pool.map pool (fun x -> 2 * x) [| 1; 2; 3 |]))

let test_create_rejects_nonpositive () =
  Alcotest.check_raises "domains = 0" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

exception Boom of int

let test_exception_propagates_and_pool_survives () =
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      (match
         Pool.map pool (fun i -> if i mod 3 = 0 then raise (Boom i) else i)
           (Array.init 10 (fun i -> i + 1))
       with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Boom i ->
        (* items 3, 6, 9 all raise; the smallest index must win so the
           error is deterministic *)
        Alcotest.(check int) "smallest failing item" 3 i);
      (* the batch drained: the pool is immediately reusable *)
      Alcotest.(check (array int)) "pool not wedged" [| 1; 2; 3 |]
        (Pool.map pool (fun x -> x) [| 1; 2; 3 |]))

let test_map_reduce_float_sum_deterministic () =
  (* summing parallel results in item order must equal the sequential
     left fold bit-for-bit, even though float addition is not associative *)
  let items = Array.init 1000 (fun i -> 1.0 /. float_of_int (i + 1)) in
  let seq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 items in
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      let par =
        Pool.map_reduce pool ~map:(fun x -> x *. x)
          ~reduce:(fun acc x -> acc +. x)
          ~init:0.0 items
      in
      Alcotest.(check (float 0.0)) "bit-identical sum" seq par)

let test_reuse_across_batches () =
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      for k = 1 to 5 do
        let items = Array.init (10 * k) (fun i -> i) in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d" k)
          (Array.map (fun i -> i + k) items)
          (Pool.map pool (fun i -> i + k) items)
      done)

let test_clamped_to_hardware_cores () =
  let cores = Pool.default_domains () in
  Pool.with_pool ~domains:(cores + 7) (fun pool ->
      Alcotest.(check int) "clamped to hardware" cores (Pool.domains pool));
  Pool.with_pool ~oversubscribe:true ~domains:(cores + 7) (fun pool ->
      Alcotest.(check int) "oversubscribe keeps the request" (cores + 7)
        (Pool.domains pool))

let test_with_pool_poisoned_task_tears_down () =
  (* the smallest-index exception must escape [with_pool] itself — not a
     [Fun.protect] Finally_raised wrapper — and the workers must be
     joined on that path too: repeated poisoned rounds neither wedge nor
     accumulate domains. *)
  for _round = 1 to 20 do
    match
      Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
          Pool.map pool
            (fun i -> if i >= 5 then raise (Boom i) else i)
            (Array.init 16 (fun i -> i)))
    with
    | _ -> Alcotest.fail "expected the poisoned task to raise"
    | exception Boom i -> Alcotest.(check int) "smallest poisoned index" 5 i
  done;
  (* every round joined its domains: a fresh full-size pool still works *)
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "clean restart" [| 0; 1; 2 |]
        (Pool.map pool (fun x -> x) [| 0; 1; 2 |]))

(* ---------------- Rng.split_n properties ---------------- *)

let prop_split_n_children_distinct =
  QCheck.Test.make ~name:"split_n children pairwise distinct" ~count:100
    QCheck.(pair small_nat (int_range 2 16))
    (fun (seed, n) ->
      let children = Rng.split_n (Rng.create seed) n in
      let firsts = Array.map (fun c -> Rng.next_int64 c) children in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Int64.equal firsts.(i) firsts.(j) then ok := false
        done
      done;
      !ok)

let prop_split_n_reproducible =
  QCheck.Test.make ~name:"split_n reproducible from the seed" ~count:100
    QCheck.(pair small_nat (int_range 1 16))
    (fun (seed, n) ->
      let a = Rng.split_n (Rng.create seed) n in
      let b = Rng.split_n (Rng.create seed) n in
      Array.for_all2
        (fun x y ->
          List.for_all
            (fun _ -> Int64.equal (Rng.next_int64 x) (Rng.next_int64 y))
            [ 1; 2; 3 ])
        a b)

let prop_split_n_prefix_stable =
  (* child i is a pure function of the parent seed and i: splitting off
     more children never changes the earlier ones *)
  QCheck.Test.make ~name:"split_n prefix stable under larger n" ~count:100
    QCheck.(triple small_nat (int_range 1 8) (int_range 0 8))
    (fun (seed, n, extra) ->
      let a = Rng.split_n (Rng.create seed) n in
      let b = Rng.split_n (Rng.create seed) (n + extra) in
      Array.for_all2
        (fun x y -> Int64.equal (Rng.next_int64 x) (Rng.next_int64 y))
        a (Array.sub b 0 n))

let test_split_n_edge_cases () =
  Alcotest.(check int) "zero children" 0 (Array.length (Rng.split_n (Rng.create 1) 0));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Rng.split_n: negative count") (fun () ->
      ignore (Rng.split_n (Rng.create 1) (-1)))

(* ---------------- learner determinism across domain counts ---------------- *)

let check_same_learn label (a : Learner.result) (b : Learner.result) =
  Alcotest.(check (array (float 0.0)))
    (label ^ ": identical theta")
    (Controller.params a.Learner.controller)
    (Controller.params b.Learner.controller);
  Alcotest.(check int) (label ^ ": same iterations") a.Learner.iterations b.Learner.iterations;
  Alcotest.(check int) (label ^ ": same verifier calls") a.Learner.verifier_calls
    b.Learner.verifier_calls;
  Alcotest.(check int) (label ^ ": same skipped probes") a.Learner.skipped_probes
    b.Learner.skipped_probes;
  Alcotest.(check bool) (label ^ ": same verdict") true (a.Learner.verdict = b.Learner.verdict);
  List.iter2
    (fun (p : Learner.history_point) (q : Learner.history_point) ->
      Alcotest.(check (float 0.0)) (label ^ ": same objective trace") p.Learner.objective
        q.Learner.objective)
    a.Learner.history b.Learner.history

let acc_learn_at domains =
  let cfg =
    { Learner.default_config with Learner.max_iters = 8; alpha = 0.2; beta = 0.2; seed = 7 }
  in
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Learner.learn ~pool cfg ~metric:Metrics.Geometric ~spec:Acc.spec ~verify:Acc.verify
        ~init:Acc.initial_controller)

let test_acc_learner_domains_1_vs_4 () =
  check_same_learn "acc coordinate" (acc_learn_at 1) (acc_learn_at 4)

(* Tiny nonlinear closed loop (short horizon, small net) so SPSA learning
   under the POLAR-style verifier stays cheap; mirrors the faults suite. *)
let nn_learn_at ~name ~f ~dim domains =
  let lo = Array.make dim 0.0 and hi = Array.make dim 0.02 in
  let x0 = Box.make ~lo ~hi in
  let unsafe = Box.of_intervals (Array.make dim (I.make 5.0 6.0)) in
  let goal = Box.of_intervals (Array.make dim (I.make (-0.5) 0.5)) in
  let spec = Spec.make ~name ~x0 ~unsafe ~goal ~delta:0.1 ~steps:4 in
  let net =
    Mlp.create ~sizes:[ dim; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] (Rng.create 5)
  in
  let verify c =
    match c with
    | Controller.Net { net; output_scale } ->
      Verifier.nn_flowpipe ~order:2 ~disturbance_slots:4 ~f ~delta:0.1 ~steps:4 ~net
        ~output_scale ~method_:Verifier.Polar ~x0 ()
    | Controller.Linear _ -> Alcotest.fail "NN controller expected"
  in
  let cfg =
    { Learner.default_config with
      Learner.max_iters = 3; gradient_mode = Learner.Spsa 2; seed = 3 }
  in
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Learner.learn ~pool cfg ~metric:Metrics.Geometric ~spec ~verify
        ~init:(Controller.net ~output_scale:1.0 net))

let test_oscillator_learner_domains_1_vs_2_vs_4 () =
  let at = nn_learn_at ~name:"osc-par" ~f:Oscillator.dynamics ~dim:2 in
  let d1 = at 1 in
  check_same_learn "oscillator spsa d2" d1 (at 2);
  check_same_learn "oscillator spsa d4" d1 (at 4)

let test_threed_learner_domains_1_vs_4 () =
  let at = nn_learn_at ~name:"threed-par" ~f:Threed.dynamics ~dim:3 in
  check_same_learn "threed spsa" (at 1) (at 4)

(* ---------------- initial-set search determinism ---------------- *)

let check_same_initset label (a : Initset.result) (b : Initset.result) =
  Alcotest.(check bool) (label ^ ": identical certified cells") true
    (a.Initset.verified = b.Initset.verified);
  Alcotest.(check bool) (label ^ ": identical rejected cells") true
    (a.Initset.rejected = b.Initset.rejected);
  Alcotest.(check (float 0.0)) (label ^ ": identical coverage") a.Initset.coverage
    b.Initset.coverage;
  Alcotest.(check int) (label ^ ": same verifier calls") a.Initset.verifier_calls
    b.Initset.verifier_calls

(* Shrink the ACC goal so the top-level cell fails and the search refines
   through multi-cell frontiers (the full goal certifies X_0 in one call,
   which never exercises the fan-out). *)
let acc_tight_goal =
  let g = Acc.spec.Spec.goal in
  let lo = Box.lo g and hi = Box.hi g in
  Box.make
    ~lo:(Array.mapi (fun i l -> l +. (0.3 *. (hi.(i) -. l))) lo)
    ~hi:(Array.mapi (fun i h -> h -. (0.3 *. (h -. (Box.lo g).(i)))) hi)

let acc_initset_at domains =
  let c = Acc.initial_controller in
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Initset.search ~max_depth:3 ~pool
        ~verify:(fun cell -> Acc.verify_from cell c)
        ~goal:acc_tight_goal ~x0:Acc.spec.Spec.x0 ())

let test_acc_initset_domains_1_vs_4 () =
  let d1 = acc_initset_at 1 in
  Alcotest.(check bool) "search actually refined" true (d1.Initset.verifier_calls > 1);
  check_same_initset "acc initset" d1 (acc_initset_at 4)

let acc_initset_even_at domains =
  let c = Acc.initial_controller in
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Initset.search_even ~max_rounds:3 ~pool
        ~verify:(fun cell -> Acc.verify_from cell c)
        ~goal:acc_tight_goal ~x0:Acc.spec.Spec.x0 ())

let test_acc_initset_even_domains_1_vs_4 () =
  check_same_initset "acc even partition" (acc_initset_even_at 1) (acc_initset_even_at 4)

(* ---------------- intra-call flowpipe parallelism ---------------- *)

(* Compare flowpipes through their step boxes (plain floats): TM
   structural equality is unreliable because bound caches fill lazily. *)
let check_same_pipe label a b =
  Alcotest.(check bool) (label ^ ": same divergence flag") (Flowpipe.diverged a)
    (Flowpipe.diverged b);
  let ba = Flowpipe.step_boxes a and bb = Flowpipe.step_boxes b in
  Alcotest.(check int) (label ^ ": same step count") (List.length ba) (List.length bb);
  List.iter2
    (fun x y -> Alcotest.(check bool) (label ^ ": bit-identical step box") true (x = y))
    ba bb

(* Behavior cloning is seeded, so every domain count sees the identical
   controller. *)
let osc_controller = lazy (Oscillator.pretrained_controller (Rng.create 1))

let osc_pipe_at ~method_ domains =
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Oscillator.verify ~method_ ~pool (Lazy.force osc_controller))

let test_intra_call_polar_domains_1_vs_4 () =
  check_same_pipe "polar intra-call"
    (osc_pipe_at ~method_:Verifier.Polar 1)
    (osc_pipe_at ~method_:Verifier.Polar 4)

(* The benchmark's own settings: order-3 Taylor models with the fast (6)
   and tight (8) symbolic-remainder budgets, on the oscillator (8 and 10
   variables) and on 3-D (9 and 11). Every Taylor-model product then runs
   the dense truncated kernel, whose tables each worker domain builds for
   itself, so step AND segment boxes must not depend on the domain
   count. *)
let threed_controller = lazy (Threed.pretrained_controller (Rng.create 1))

let test_intra_call_polar_bench_settings () =
  let same label pipe_at =
    let a = pipe_at 1 and b = pipe_at 4 in
    check_same_pipe label a b;
    List.iter2
      (fun x y -> Alcotest.(check bool) (label ^ ": bit-identical segment box") true (x = y))
      (Flowpipe.segment_boxes a) (Flowpipe.segment_boxes b)
  in
  List.iter
    (fun slots ->
      same (Printf.sprintf "oscillator order 3, %d slots" slots) (fun domains ->
          Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
              Oscillator.verify ~slots ~pool (Lazy.force osc_controller)));
      same (Printf.sprintf "3-D order 3, %d slots" slots) (fun domains ->
          Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
              Threed.verify ~slots ~pool (Lazy.force threed_controller))))
    [ Oscillator.fast_slots; Oscillator.tight_slots ]

let test_intra_call_bernstein_domains_1_vs_4 () =
  (* samples_per_dim = 10 on a 2-D plant is a 100-point remainder grid,
     over the parallel-tabulation threshold, so the pool path engages *)
  let method_ = Verifier.Bernstein { degrees = [| 2; 2 |]; samples_per_dim = 10 } in
  check_same_pipe "bernstein intra-call" (osc_pipe_at ~method_ 1) (osc_pipe_at ~method_ 4);
  (* the curvature bound usually makes the sweep redundant, so the pooled
     sweep is pinned directly: on a small box the curvature bound wins and
     no sweep runs, on a wide one the 48 x 48 sweep runs on the pool *)
  let net = Mlp.create ~sizes:[ 2; 8; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] (Rng.create 3) in
  let f p = 4.0 *. (Mlp.forward net p).(0) in
  let hessian_diag = Option.get (Dwv_nn.Lipschitz.hessian_diag_bound net) in
  let remainder_at box domains =
    let lipschitz = Dwv_nn.Lipschitz.local_bound net box in
    Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
        let a = Dwv_poly.Bernstein.approximate ~pool ~f ~degrees:[| 2; 2 |] box in
        let sweeps0 = Dwv_util.Counters.get "bernstein_sweeps" in
        let r =
          Dwv_poly.Bernstein.remainder ~pool ~hessian_diag ~lipschitz ~f ~samples_per_dim:48 a
        in
        (Int64.bits_of_float r, Dwv_util.Counters.get "bernstein_sweeps" - sweeps0))
  in
  List.iter
    (fun (label, box, sweeps) ->
      let r1, s1 = remainder_at box 1 and r4, s4 = remainder_at box 4 in
      Alcotest.(check int64) (label ^ ": remainder bits, domains 1 = 4") r1 r4;
      Alcotest.(check (pair int int)) (label ^ ": sweeps run") (sweeps, sweeps) (s1, s4))
    [
      ("sweep skipped", Box.make ~lo:[| -0.51; 0.49 |] ~hi:[| -0.49; 0.51 |], 0);
      ("sweep runs", Box.make ~lo:[| -1.5; -1.5 |] ~hi:[| 1.5; 1.5 |], 1);
    ]

let test_lie_table_published_once () =
  (* the registry is publish-once and process-global: after the first
     build of a (dynamics, order) key, repeated calls and every pool
     worker adopt the published table instead of re-deriving it, so the
     registry size must not move *)
  let t1 = Taylor_reach.lie_table ~f:Oscillator.dynamics ~order:3 in
  let published = Taylor_reach.lie_registry_size () in
  let t2 = Taylor_reach.lie_table ~f:Oscillator.dynamics ~order:3 in
  Alcotest.(check int) "repeat call publishes nothing" published
    (Taylor_reach.lie_registry_size ());
  Alcotest.(check bool) "repeat call returns the published table" true (t1 = t2);
  Pool.with_pool ~oversubscribe:true ~domains:4 (fun pool ->
      let tables =
        Pool.map pool
          (fun () -> Taylor_reach.lie_table ~f:Oscillator.dynamics ~order:3)
          (Array.make 8 ())
      in
      Alcotest.(check int) "no worker republishes the table" published
        (Taylor_reach.lie_registry_size ());
      Array.iter
        (fun t -> Alcotest.(check bool) "workers see the same table" true (t = t1))
        tables);
  (* a key nobody has asked for yet really is a fresh entry *)
  let fresh_f = [| Expr.neg (Expr.var 1); Expr.var 0 |] in
  ignore (Taylor_reach.lie_table ~f:fresh_f ~order:2 : Taylor_reach.lie_table);
  Alcotest.(check int) "an unseen key publishes one entry" (published + 1)
    (Taylor_reach.lie_registry_size ())

(* ---------------- incremental re-verification (warm starts) ---------------- *)

(* Small closed loop (short horizon, tiny net) so the robust verifier is
   cheap enough for property-based warm-vs-cold comparison. *)
let warm_x0 = Box.make ~lo:[| 0.0; 0.0 |] ~hi:[| 0.02; 0.02 |]
let warm_unsafe = Box.of_intervals (Array.make 2 (I.make 5.0 6.0))
let warm_goal = Box.of_intervals (Array.make 2 (I.make (-0.5) 0.5))

let warm_net =
  lazy (Mlp.create ~sizes:[ 2; 4; 1 ] ~acts:[ Activation.Tanh; Activation.Tanh ] (Rng.create 5))

let warm_robust ?warm x0 =
  Verifier.nn_flowpipe_robust ~order:2 ~disturbance_slots:4 ?warm ~f:Oscillator.dynamics
    ~delta:0.1 ~steps:6 ~net:(Lazy.force warm_net) ~output_scale:1.0 ~method_:Verifier.Polar
    ~x0 ()

let warm_donor = lazy (warm_robust warm_x0)
let warm_verdict p = Verifier.check ~unsafe:warm_unsafe ~goal:warm_goal p

let test_warm_trace_replay_hits_every_substep () =
  let donor = Lazy.force warm_donor in
  (match donor.Verifier.warm with
  | None -> Alcotest.fail "successful robust call must donate a trace"
  | Some w -> Alcotest.(check int) "one enclosure per sub-step" 6 (Warm.length w));
  Dwv_util.Counters.reset ();
  let again = warm_robust ?warm:donor.Verifier.warm warm_x0 in
  Alcotest.(check int) "every sub-step warm-started" 6 (Dwv_util.Counters.get "warm_hits");
  Alcotest.(check int) "no hint degraded" 0 (Dwv_util.Counters.get "warm_poisoned");
  (* warmth changes only the search for the a-priori enclosure, never
     the judgement *)
  Alcotest.(check bool) "same verdict as the donor" true
    (warm_verdict again.Verifier.pipe = warm_verdict donor.Verifier.pipe)

let prop_warm_verdict_matches_cold =
  QCheck.Test.make ~name:"warm-started verification agrees with cold on nearby cells"
    ~count:20
    QCheck.(pair (int_range 0 100) (int_range 0 100))
    (fun (a, b) ->
      let donor = Lazy.force warm_donor in
      (* a nearby cell: translated and slightly reshaped, the situation
         of a child frontier cell or the next gradient probe *)
      let dx = 0.0001 *. float_of_int a and dy = 0.0001 *. float_of_int b in
      let lo = Box.lo warm_x0 and hi = Box.hi warm_x0 in
      let cell =
        Box.make
          ~lo:[| lo.(0) +. dx; lo.(1) +. dy |]
          ~hi:[| hi.(0) +. dx; hi.(1) +. (0.5 *. dy) |]
      in
      Dwv_util.Counters.reset ();
      let w = warm_robust ?warm:donor.Verifier.warm cell in
      let attempted =
        Dwv_util.Counters.get "warm_hits" + Dwv_util.Counters.get "warm_poisoned"
      in
      let c = warm_robust cell in
      attempted > 0
      && warm_verdict w.Verifier.pipe = warm_verdict c.Verifier.pipe
      && Flowpipe.diverged w.Verifier.pipe = Flowpipe.diverged c.Verifier.pipe)

let test_warm_poison_degrades_to_cold () =
  let donor = Lazy.force warm_donor in
  let cold = warm_robust warm_x0 in
  Dwv_util.Counters.reset ();
  let poisoned =
    Fault.with_faults ~seed:11 [ (0, Fault.Warm_poison) ] (fun () ->
        warm_robust ?warm:donor.Verifier.warm warm_x0)
  in
  Alcotest.(check int) "no warm hit survives the poison" 0
    (Dwv_util.Counters.get "warm_hits");
  Alcotest.(check int) "every hint counted as poisoned" 6
    (Dwv_util.Counters.get "warm_poisoned");
  (* the gate discards spoiled hints before they can touch the
     iteration, so the result is the bit-identical cold pipe *)
  check_same_pipe "poisoned warm = cold" cold.Verifier.pipe poisoned.Verifier.pipe

let warm_learn_at domains =
  (* a goal the tiny controller cannot reach, so the learner runs its
     full probe fan-out instead of certifying the start cell at once *)
  let far_goal = Box.of_intervals (Array.make 2 (I.make 0.3 0.4)) in
  let spec =
    Spec.make ~name:"warm-learn" ~x0:warm_x0 ~unsafe:warm_unsafe ~goal:far_goal ~delta:0.1
      ~steps:6
  in
  let vw ?warm c =
    match c with
    | Controller.Net { net; output_scale } ->
      let r =
        Verifier.nn_flowpipe_robust ~order:2 ~disturbance_slots:4 ?warm
          ~f:Oscillator.dynamics ~delta:0.1 ~steps:6 ~net ~output_scale
          ~method_:Verifier.Polar ~x0:warm_x0 ()
      in
      (r.Verifier.pipe, r.Verifier.warm)
    | Controller.Linear _ -> Alcotest.fail "NN controller expected"
  in
  let cfg =
    { Learner.default_config with
      Learner.max_iters = 3; gradient_mode = Learner.Spsa 2; seed = 3 }
  in
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Learner.learn ~pool ~verify_warm:vw cfg ~metric:Metrics.Geometric ~spec
        ~verify:(fun c -> fst (vw c))
        ~init:(Controller.net ~output_scale:1.0 (Lazy.force warm_net)))

let test_warm_learner_domains_1_vs_4 () =
  Dwv_util.Counters.reset ();
  let d1 = warm_learn_at 1 in
  Alcotest.(check bool) "probes actually warm-start" true
    (Dwv_util.Counters.get "warm_hits" > 0);
  check_same_learn "warm learner" d1 (warm_learn_at 4)

(* Tightened goal (as in the acc initset tests) so the top cell fails
   and the search refines: children then re-verify incrementally against
   their parent's trace. *)
let osc_tight_goal =
  let g = Oscillator.spec.Spec.goal in
  let lo = Box.lo g and hi = Box.hi g in
  Box.make
    ~lo:(Array.mapi (fun i l -> l +. (0.3 *. (hi.(i) -. l))) lo)
    ~hi:(Array.mapi (fun i h -> h -. (0.3 *. (h -. (Box.lo g).(i)))) hi)

let osc_warm_initset_at domains =
  let c = Lazy.force osc_controller in
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Initset.search ~max_depth:2 ~pool
        ~verify_warm:(fun ?warm cell -> Oscillator.verify_warm_from ~pool ?warm cell c)
        ~verify:(fun cell -> Oscillator.verify_from ~pool cell c)
        ~goal:osc_tight_goal ~x0:Oscillator.spec.Spec.x0 ())

let test_warm_initset_domains_1_vs_4 () =
  Dwv_util.Counters.reset ();
  let d1 = osc_warm_initset_at 1 in
  Alcotest.(check bool) "warm search refined" true (d1.Initset.verifier_calls > 1);
  Alcotest.(check bool) "children warm-start from parents" true
    (Dwv_util.Counters.get "warm_hits" > 0);
  check_same_initset "oscillator warm initset" d1 (osc_warm_initset_at 4)

(* ---------------- Monte-Carlo rate determinism ---------------- *)

let rates_at ~sys ~spec ~controller domains =
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Evaluate.rates ~n:200 ~pool ~rng:(Rng.create 2024) ~sys ~controller ~spec ())

let check_same_rates label (a : Evaluate.rates) (b : Evaluate.rates) =
  Alcotest.(check (float 0.0)) (label ^ ": identical SC") a.Evaluate.safe_percent
    b.Evaluate.safe_percent;
  Alcotest.(check (float 0.0)) (label ^ ": identical GR") a.Evaluate.goal_percent
    b.Evaluate.goal_percent;
  Alcotest.(check int) (label ^ ": same n") a.Evaluate.n b.Evaluate.n

let test_acc_rates_domains_1_vs_2_vs_4 () =
  let controller = Acc.sim_controller Acc.initial_controller in
  let at = rates_at ~sys:Acc.sampled ~spec:Acc.spec ~controller in
  let d1 = at 1 in
  check_same_rates "acc rates d2" d1 (at 2);
  check_same_rates "acc rates d4" d1 (at 4)

let test_oscillator_rates_domains_1_vs_4 () =
  let controller = Oscillator.sim_controller (Oscillator.pretrained_controller (Rng.create 1)) in
  let at = rates_at ~sys:Oscillator.sampled ~spec:Oscillator.spec ~controller in
  check_same_rates "oscillator rates" (at 1) (at 4)

let test_rates_parent_stream_advance_identical () =
  (* the caller's generator must advance the same with and without a
     pool, so downstream draws do not depend on the execution mode *)
  let draw_after domains =
    let rng = Rng.create 99 in
    let _ =
      Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
          Evaluate.rates ~n:50 ~pool ~rng ~sys:Acc.sampled
            ~controller:(Acc.sim_controller Acc.initial_controller) ~spec:Acc.spec ())
    in
    Rng.next_int64 rng
  in
  Alcotest.(check bool) "identical parent stream position" true
    (Int64.equal (draw_after 1) (draw_after 4))

let suite =
  [
    Alcotest.test_case "map: empty batch" `Quick test_map_empty;
    Alcotest.test_case "map: single item" `Quick test_map_single_item;
    Alcotest.test_case "map: items << domains" `Quick test_map_fewer_items_than_domains;
    Alcotest.test_case "map: order preserved" `Quick test_map_order_preserved;
    Alcotest.test_case "mapi passes index" `Quick test_mapi_passes_index;
    Alcotest.test_case "domains=1 is plain map" `Quick test_sequential_pool_is_plain_map;
    Alcotest.test_case "create rejects domains < 1" `Quick test_create_rejects_nonpositive;
    Alcotest.test_case "exception propagates, pool survives" `Quick
      test_exception_propagates_and_pool_survives;
    Alcotest.test_case "map_reduce float sum deterministic" `Quick
      test_map_reduce_float_sum_deterministic;
    Alcotest.test_case "pool reusable across batches" `Quick test_reuse_across_batches;
    Alcotest.test_case "pool clamps to hardware cores" `Quick test_clamped_to_hardware_cores;
    Alcotest.test_case "with_pool tears down on poisoned task" `Quick
      test_with_pool_poisoned_task_tears_down;
    QCheck_alcotest.to_alcotest prop_split_n_children_distinct;
    QCheck_alcotest.to_alcotest prop_split_n_reproducible;
    QCheck_alcotest.to_alcotest prop_split_n_prefix_stable;
    Alcotest.test_case "split_n edge cases" `Quick test_split_n_edge_cases;
    Alcotest.test_case "acc learner: domains 1 = 4" `Quick test_acc_learner_domains_1_vs_4;
    Alcotest.test_case "oscillator learner: domains 1 = 2 = 4" `Quick
      test_oscillator_learner_domains_1_vs_2_vs_4;
    Alcotest.test_case "threed learner: domains 1 = 4" `Quick test_threed_learner_domains_1_vs_4;
    Alcotest.test_case "acc initset: domains 1 = 4" `Quick test_acc_initset_domains_1_vs_4;
    Alcotest.test_case "acc even partition: domains 1 = 4" `Quick
      test_acc_initset_even_domains_1_vs_4;
    Alcotest.test_case "intra-call polar step: domains 1 = 4" `Quick
      test_intra_call_polar_domains_1_vs_4;
    Alcotest.test_case "intra-call polar, bench settings: domains 1 = 4" `Quick
      test_intra_call_polar_bench_settings;
    Alcotest.test_case "intra-call bernstein grid: domains 1 = 4" `Quick
      test_intra_call_bernstein_domains_1_vs_4;
    Alcotest.test_case "lie table published once" `Quick test_lie_table_published_once;
    Alcotest.test_case "warm trace replay hits every sub-step" `Quick
      test_warm_trace_replay_hits_every_substep;
    QCheck_alcotest.to_alcotest prop_warm_verdict_matches_cold;
    Alcotest.test_case "poisoned warm hints degrade to the cold pipe" `Quick
      test_warm_poison_degrades_to_cold;
    Alcotest.test_case "warm learner: domains 1 = 4" `Quick test_warm_learner_domains_1_vs_4;
    Alcotest.test_case "warm initset: domains 1 = 4" `Quick test_warm_initset_domains_1_vs_4;
    Alcotest.test_case "acc rates: domains 1 = 2 = 4" `Quick test_acc_rates_domains_1_vs_2_vs_4;
    Alcotest.test_case "oscillator rates: domains 1 = 4" `Quick
      test_oscillator_rates_domains_1_vs_4;
    Alcotest.test_case "rates advance parent stream identically" `Quick
      test_rates_parent_stream_advance_identical;
  ]

let () = Alcotest.run "dwv-parallel" [ ("parallel", suite) ]
