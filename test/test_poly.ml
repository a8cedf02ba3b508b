(* Tests for dwv_poly: polynomial arithmetic (including the packed
   monomial representation), range enclosures, Bernstein approximation. *)

module Poly = Dwv_poly.Poly
module Bernstein = Dwv_poly.Bernstein
module I = Dwv_interval.Interval
module Box = Dwv_interval.Box

let check_float = Alcotest.(check (float 1e-9))

(* p(z0, z1) = 2 + 3 z0 - z0 z1^2 *)
let sample_poly () =
  Poly.of_terms 2 [ ([| 0; 0 |], 2.0); ([| 1; 0 |], 3.0); ([| 1; 2 |], -1.0) ]

let test_eval () =
  let p = sample_poly () in
  check_float "at (1,2)" (2.0 +. 3.0 -. 4.0) (Poly.eval p [| 1.0; 2.0 |]);
  check_float "at (0,5)" 2.0 (Poly.eval p [| 0.0; 5.0 |])

let test_degree_terms () =
  let p = sample_poly () in
  Alcotest.(check int) "degree" 3 (Poly.degree p);
  Alcotest.(check int) "terms" 3 (Poly.num_terms p);
  check_float "constant" 2.0 (Poly.constant_term p)

let test_add_cancel () =
  let p = sample_poly () in
  let z = Poly.sub p p in
  Alcotest.(check bool) "cancellation" true (Poly.is_zero z)

let test_mul_known () =
  (* (1 + z0)(1 - z0) = 1 - z0^2 *)
  let one_plus = Poly.of_terms 1 [ ([| 0 |], 1.0); ([| 1 |], 1.0) ] in
  let one_minus = Poly.of_terms 1 [ ([| 0 |], 1.0); ([| 1 |], -1.0) ] in
  let expected = Poly.of_terms 1 [ ([| 0 |], 1.0); ([| 2 |], -1.0) ] in
  Alcotest.(check bool) "product" true (Poly.equal (Poly.mul one_plus one_minus) expected)

let test_pow () =
  (* (z0 + 1)^3 evaluated matches *)
  let p = Poly.of_terms 1 [ ([| 0 |], 1.0); ([| 1 |], 1.0) ] in
  let cube = Poly.pow p 3 in
  check_float "at 2" 27.0 (Poly.eval cube [| 2.0 |]);
  Alcotest.(check int) "degree" 3 (Poly.degree cube)

let test_truncate () =
  let p = sample_poly () in
  let low, high = Poly.truncate ~order:1 p in
  Alcotest.(check int) "low degree" 1 (Poly.degree low);
  Alcotest.(check int) "dropped terms" 1 (Poly.num_terms high);
  Alcotest.(check bool) "partition" true (Poly.equal (Poly.add low high) p)

let test_split_var () =
  let p = sample_poly () in
  let without, with_ = Poly.split_var p 1 in
  Alcotest.(check int) "terms without z1" 2 (Poly.num_terms without);
  Alcotest.(check int) "terms with z1" 1 (Poly.num_terms with_);
  Alcotest.(check bool) "partition" true (Poly.equal (Poly.add without with_) p)

let test_diff () =
  let p = sample_poly () in
  (* dp/dz1 = -2 z0 z1 *)
  let d = Poly.diff p 1 in
  check_float "at (1,3)" (-6.0) (Poly.eval d [| 1.0; 3.0 |])

let test_bound_unit_exact_constant () =
  let p = Poly.const 2 5.0 in
  let b = Poly.bound_unit p in
  check_float "lo" 5.0 (I.lo b);
  check_float "hi" 5.0 (I.hi b)

let test_bound_unit_even_odd () =
  (* z0^2 over [-1,1]: [0,1]; z0 over [-1,1]: [-1,1] *)
  let even = Poly.of_terms 1 [ ([| 2 |], 3.0) ] in
  Alcotest.(check bool) "even" true (I.equal (Poly.bound_unit even) (I.make 0.0 3.0));
  let odd = Poly.of_terms 1 [ ([| 1 |], 3.0) ] in
  Alcotest.(check bool) "odd" true (I.equal (Poly.bound_unit odd) (I.make (-3.0) 3.0))

let test_exponent_range_guard () =
  Alcotest.check_raises "too large" (Invalid_argument "Poly: exponent out of range [0, 15]")
    (fun () -> ignore (Poly.of_terms 1 [ ([| 16 |], 1.0) ]))

let test_nvars_guard () =
  Alcotest.check_raises "too many vars" (Invalid_argument "Poly: nvars must be between 1 and 15")
    (fun () -> ignore (Poly.zero 16))

let prop_bound_unit_sound =
  QCheck.Test.make ~name:"bound_unit contains point values" ~count:300
    QCheck.(pair (float_range (-1.0) 1.0) (float_range (-1.0) 1.0))
    (fun (a, b) ->
      let p = sample_poly () in
      let v = Poly.eval p [| a; b |] in
      I.contains (I.widen (Poly.bound_unit p)) v)

let prop_mul_eval_homomorphism =
  QCheck.Test.make ~name:"eval (p*q) = eval p * eval q" ~count:300
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (a, b) ->
      let p = sample_poly () in
      let q = Poly.of_terms 2 [ ([| 0; 1 |], 1.0); ([| 2; 0 |], -0.5) ] in
      let x = [| a; b |] in
      Float.abs (Poly.eval (Poly.mul p q) x -. (Poly.eval p x *. Poly.eval q x)) < 1e-7)

let prop_ieval_sound =
  QCheck.Test.make ~name:"ieval over box contains samples" ~count:200
    QCheck.(pair (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (t0, t1) ->
      let p = sample_poly () in
      let box = Box.make ~lo:[| -0.5; 1.0 |] ~hi:[| 2.0; 3.0 |] in
      let x = Box.denormalize box [| (2.0 *. t0) -. 1.0; (2.0 *. t1) -. 1.0 |] in
      I.contains (I.widen (Poly.ieval p box)) (Poly.eval p x))

(* ---------------- Bernstein ---------------- *)

let test_binomial () =
  check_float "C(5,2)" 10.0 (Bernstein.binomial 5 2);
  check_float "C(n,0)" 1.0 (Bernstein.binomial 7 0);
  check_float "outside" 0.0 (Bernstein.binomial 3 5)

let test_basis_partition_of_unity () =
  let d = 4 in
  List.iter
    (fun t ->
      let sum = ref 0.0 in
      for k = 0 to d do
        sum := !sum +. Bernstein.basis ~degree:d ~k t
      done;
      check_float "partition of unity" 1.0 !sum)
    [ 0.0; 0.3; 0.5; 0.77; 1.0 ]

let test_bernstein_reproduces_linear () =
  (* Bernstein operators reproduce affine functions exactly *)
  let f x = (2.0 *. x.(0)) -. (3.0 *. x.(1)) +. 1.0 in
  let box = Box.make ~lo:[| 0.0; -1.0 |] ~hi:[| 2.0; 1.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 3; 3 |] box in
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) "affine exact" (f p) (Bernstein.eval a p))
    [ [| 0.0; -1.0 |]; [| 1.0; 0.0 |]; [| 2.0; 1.0 |]; [| 0.5; 0.25 |] ]

let test_bernstein_interpolates_corners () =
  let f x = sin x.(0) *. cos x.(1) in
  let box = Box.make ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 4; 4 |] box in
  (* Bernstein approximations interpolate the corner samples *)
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) "corner" (f p) (Bernstein.eval a p))
    (Box.corners box)

let test_bernstein_to_poly_consistent () =
  let f x = (x.(0) *. x.(0)) +. (0.5 *. x.(1)) in
  let box = Box.make ~lo:[| -1.0; 0.0 |] ~hi:[| 1.0; 2.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 3; 2 |] box in
  let p = Bernstein.to_poly a in
  (* to_poly lives in normalized coordinates t in [0,1]^2 *)
  List.iter
    (fun (t0, t1) ->
      let x = [| -1.0 +. (2.0 *. t0); 2.0 *. t1 |] in
      Alcotest.(check (float 1e-8)) "power basis agrees" (Bernstein.eval a x)
        (Poly.eval p [| t0; t1 |]))
    [ (0.0, 0.0); (0.5, 0.5); (1.0, 1.0); (0.2, 0.9) ]

let test_bernstein_coeff_range_bounds_eval () =
  let f x = tanh x.(0) in
  let box = Box.make ~lo:[| -2.0 |] ~hi:[| 2.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 5 |] box in
  let range = Bernstein.coeff_range a in
  List.iter
    (fun x ->
      Alcotest.(check bool) "in coeff hull" true
        (I.contains (I.widen range) (Bernstein.eval a [| x |])))
    [ -2.0; -1.0; 0.0; 0.5; 2.0 ]

let test_bernstein_remainder_sound_1d () =
  (* |f - B| on a dense grid must stay below the computed remainder *)
  let f x = sin (2.0 *. x.(0)) in
  let box = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 4 |] box in
  let rem = Bernstein.remainder ~lipschitz:2.0 ~f ~samples_per_dim:12 a in
  for i = 0 to 100 do
    let x = [| float_of_int i /. 100.0 |] in
    let err = Float.abs (f x -. Bernstein.eval a x) in
    if err > rem +. 1e-9 then
      Alcotest.failf "remainder violated at %g: err %g > rem %g" x.(0) err rem
  done

let test_bernstein_remainder_decreases_with_samples () =
  let f x = exp x.(0) in
  let box = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let a = Bernstein.approximate ~f ~degrees:[| 3 |] box in
  let coarse = Bernstein.remainder_sampled ~lipschitz:3.0 ~f ~samples_per_dim:3 a in
  let fine = Bernstein.remainder_sampled ~lipschitz:3.0 ~f ~samples_per_dim:30 a in
  Alcotest.(check bool) "finer grid tightens" true (fine < coarse)

(* ---------- fused truncated product vs the sparse route ---------- *)

(* What [Poly.mul_trunc] must reproduce bit for bit: the full sparse
   product, split at the order, the dropped part bounded over [-1,1]^n. *)
let mul_trunc_oracle ~order a b =
  let keep, drop = Poly.truncate ~order (Poly.mul a b) in
  (keep, Poly.bound_unit drop)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Same keys in the same order (zero coefficients included) with the same
   coefficient bits. *)
let same_terms p q =
  let tp = Poly.to_terms p and tq = Poly.to_terms q in
  List.length tp = List.length tq
  && List.for_all2
       (fun (ea, ca) (eb, cb) -> Array.for_all2 Int.equal ea eb && same_bits ca cb)
       tp tq

let same_interval x y = same_bits (I.lo x) (I.lo y) && same_bits (I.hi x) (I.hi y)

(* Exact small values make sums cancel to exactly 0.0; 1e-200 squared
   underflows to (signed) zero, so products carry zero-coefficient terms. *)
let coeff_pool = [| 0.0; 1.0; -1.0; 0.5; -0.5; 2.0; -3.0; 1e-200; -1e-200 |]

(* A random polynomial over [nvars] variables with terms of total degree
   <= [max_degree]. *)
let random_poly st ~nvars ~max_degree =
  let nterms = Random.State.int st 25 in
  let terms =
    List.init nterms (fun _ ->
        let e = Array.make nvars 0 in
        for _ = 1 to Random.State.int st (max_degree + 1) do
          let v = Random.State.int st nvars in
          e.(v) <- e.(v) + 1
        done;
        let c =
          if Random.State.bool st then coeff_pool.(Random.State.int st (Array.length coeff_pool))
          else Random.State.float st 2.0 -. 1.0
        in
        (e, c))
  in
  Poly.of_terms nvars terms

(* One seeded case: nvars 1-11 and order 1-4 (10-11 variables at order 4
   exceed the dense slot limit, so the fallback runs too), operands of
   degree > order one time in five, and the right operand independent,
   equal to the left, its negation (every sum cancels) or a rescaling. *)
let mul_trunc_case seed =
  let st = Random.State.make [| seed |] in
  let nvars = 1 + Random.State.int st 11 and order = 1 + Random.State.int st 4 in
  let operand () =
    let max_degree = if Random.State.int st 5 = 0 then order + 2 else order in
    let p = random_poly st ~nvars ~max_degree in
    (* a truncated product carries the zero-coefficient terms [of_terms]
       cannot build *)
    if Random.State.int st 4 = 0 then
      fst (mul_trunc_oracle ~order p (random_poly st ~nvars ~max_degree))
    else p
  in
  let a = operand () in
  let b =
    match Random.State.int st 4 with
    | 0 -> Poly.neg a
    | 1 -> a
    | 2 -> Poly.scale coeff_pool.(1 + Random.State.int st 6) a
    | _ -> operand ()
  in
  (order, a, b)

let prop_mul_trunc_bit_identical =
  QCheck.Test.make ~name:"mul_trunc bit-identical to truncate (mul a b) + bound_unit"
    ~count:2000
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let order, a, b = mul_trunc_case seed in
      let keep, tail = Poly.mul_trunc ~order a b in
      let keep', tail' = mul_trunc_oracle ~order a b in
      same_terms keep keep' && same_interval tail tail')

let test_mul_trunc_edges () =
  let x = Poly.var 2 0 and y = Poly.var 2 1 in
  let xy = Poly.add x y in
  let agree name ~order a b =
    let keep, tail = Poly.mul_trunc ~order a b in
    let keep', tail' = mul_trunc_oracle ~order a b in
    Alcotest.(check bool) name true (same_terms keep keep' && same_interval tail tail')
  in
  agree "zero operand" ~order:2 (Poly.zero 2) xy;
  agree "x y times its negation" ~order:1 xy (Poly.neg xy);
  agree "operand above the order" ~order:1 (Poly.mul xy xy) xy;
  agree "order 0" ~order:0 xy xy;
  (* (x + y)(x - y) = x^2 - y^2: the x y contributions cancel exactly *)
  let keep, tail = Poly.mul_trunc ~order:2 xy (Poly.sub x y) in
  Alcotest.(check int) "cancelled x y evicted" 2 (Poly.num_terms keep);
  Alcotest.(check bool) "no tail" true (same_interval tail I.zero);
  (* a zero product on an empty slot is kept, as [mul] keeps it *)
  let tiny = Poly.scale 1e-200 x in
  let keep, _ = Poly.mul_trunc ~order:2 tiny tiny in
  Alcotest.(check int) "underflowed term kept" 1 (Poly.num_terms keep);
  (* 11 variables at order 4: C(19, 8) slots, above the dense limit *)
  let st = Random.State.make [| 7 |] in
  let big () = random_poly st ~nvars:11 ~max_degree:4 in
  agree "above the slot limit" ~order:4 (big ()) (big ())

(* ---------- Bernstein remainder: the skipped sweep vs the full formula ---------- *)

(* The sampled bound's Lipschitz pad, summed as [remainder_sampled]
   always summed it. *)
let pad_oracle ~lipschitz ~samples_per_dim (a : Bernstein.approx) =
  let h2 = ref 0.0 in
  Array.iter
    (fun wi -> h2 := !h2 +. Dwv_util.Floatx.sq (wi /. float_of_int (samples_per_dim - 1)))
    (Box.widths a.Bernstein.box);
  lipschitz *. sqrt !h2

(* [Bernstein.remainder] as written before the sweep skip: the sampled
   bound always computed (sequential sweep), then the three-way minimum.
   Returns the pad too. *)
let remainder_oracle ?hessian_diag ~lipschitz ~f ~samples_per_dim (a : Bernstein.approx) =
  if samples_per_dim < 2 then invalid_arg "oracle: need >= 2 samples";
  let w = Box.widths a.Bernstein.box and lo = Box.lo a.Bernstein.box in
  let n = Box.dim a.Bernstein.box in
  let pad = pad_oracle ~lipschitz ~samples_per_dim a in
  let worst = ref 0.0 in
  let x = Array.make n 0.0 in
  let rec sweep i =
    if i = n then begin
      let err = Float.abs (f x -. Bernstein.eval a x) in
      if err > !worst then worst := err
    end
    else
      for k = 0 to samples_per_dim - 1 do
        x.(i) <- lo.(i) +. (w.(i) *. float_of_int k /. float_of_int (samples_per_dim - 1));
        sweep (i + 1)
      done
  in
  sweep 0;
  let base = Float.min (Bernstein.remainder_lipschitz ~lipschitz a) (!worst +. pad) in
  match hessian_diag with
  | Some h -> (Float.min base (Bernstein.remainder_curvature ~hessian_diag:h a), pad)
  | None -> (base, pad)

(* One seeded case: 1-3 dimensions (an axis is zero-width one time in
   four), degrees 1-4, 2-48 samples per axis (2-12 in 3-D), a Lipschitz
   constant that is ordinary, zero, huge, infinite or NaN, and no Hessian
   bound, one small enough that the sweep is skipped, one large enough
   that it runs, or one whose curvature bound lies within a factor of 2
   of the sweep's pad on either side. *)
let remainder_case seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 3 in
  let degrees = Array.init n (fun _ -> 1 + Random.State.int st 4) in
  let lo = Array.init n (fun _ -> Random.State.float st 4.0 -. 2.0) in
  let hi =
    Array.map (fun l -> if Random.State.int st 4 = 0 then l else l +. Random.State.float st 1.5) lo
  in
  let samples_per_dim = 2 + Random.State.int st (if n = 3 then 11 else 47) in
  let k = Array.init n (fun _ -> Random.State.float st 3.0 -. 1.5) in
  let f x =
    let acc = ref (tanh (k.(0) *. x.(0) *. x.(n - 1))) in
    Array.iteri (fun i xi -> acc := !acc +. sin (k.(i) *. xi)) x;
    !acc
  in
  let lipschitz =
    match Random.State.int st 8 with
    | 0 -> 0.0
    | 1 -> Float.nan
    | 2 -> Float.infinity
    | 3 -> 1e6
    | _ -> Random.State.float st 5.0
  in
  let a = Bernstein.approximate ~f ~degrees (Box.make ~lo ~hi) in
  let hessian_diag =
    match Random.State.int st 4 with
    | 0 -> None
    | 1 -> Some (Array.init n (fun _ -> Random.State.float st 1e-4))
    | 2 -> Some (Array.init n (fun _ -> 1e3 +. Random.State.float st 1e3))
    | _ ->
      let unit = Bernstein.remainder_curvature ~hessian_diag:(Array.make n 1.0) a in
      let pad = pad_oracle ~lipschitz ~samples_per_dim a in
      let scale = if unit > 0.0 then pad /. unit else 1.0 in
      Some (Array.make n (scale *. (0.5 +. Random.State.float st 1.5)))
  in
  (a, f, lipschitz, hessian_diag, samples_per_dim)

(* f calls and the sweep counter for one [Bernstein.remainder] call. *)
let counted_remainder ?pool ?hessian_diag ~lipschitz ~f ~samples_per_dim a =
  let calls = Atomic.make 0 in
  let f x = Atomic.incr calls; f x in
  let sweeps0 = Dwv_util.Counters.get "bernstein_sweeps" in
  let r = Bernstein.remainder ?pool ?hessian_diag ~lipschitz ~f ~samples_per_dim a in
  (r, Atomic.get calls, Dwv_util.Counters.get "bernstein_sweeps" - sweeps0)

let prop_remainder_bit_identical =
  QCheck.Test.make ~name:"bernstein remainder bit-identical to the full formula" ~count:400
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let a, f, lipschitz, hessian_diag, samples_per_dim = remainder_case seed in
      let r, calls, sweeps = counted_remainder ?hessian_diag ~lipschitz ~f ~samples_per_dim a in
      let expected, pad = remainder_oracle ?hessian_diag ~lipschitz ~f ~samples_per_dim a in
      let sweep_expected =
        match hessian_diag with
        | Some h -> not (Bernstein.remainder_curvature ~hessian_diag:h a <= pad)
        | None -> true
      in
      let grid = int_of_float (float_of_int samples_per_dim ** float_of_int (Box.dim a.Bernstein.box)) in
      same_bits r expected
      && calls = (if sweep_expected then grid else 0)
      && sweeps = (if sweep_expected then 1 else 0))

(* Both sides of the skip rule, its tie at pad = curvature = 0, and the
   sample-count guard on both paths. *)
let test_remainder_skip_boundary () =
  let f x = sin (2.0 *. x.(0)) +. (x.(1) *. x.(1)) in
  let a = Bernstein.approximate ~f ~degrees:[| 2; 3 |] (Box.make ~lo:[| 0.0; -1.0 |] ~hi:[| 0.5; 0.0 |]) in
  let check label ~hessian_diag ~lipschitz ~expect_calls a =
    let r, calls, sweeps = counted_remainder ~hessian_diag ~lipschitz ~f ~samples_per_dim:12 a in
    let expected, _ = remainder_oracle ~hessian_diag ~lipschitz ~f ~samples_per_dim:12 a in
    Alcotest.(check bool) (label ^ ": bit-identical") true (same_bits r expected);
    Alcotest.(check int) (label ^ ": f calls") expect_calls calls;
    Alcotest.(check int) (label ^ ": sweeps counted") (if expect_calls > 0 then 1 else 0) sweeps
  in
  check "small hessian: skipped" ~hessian_diag:[| 1e-3; 1e-3 |] ~lipschitz:2.0 ~expect_calls:0 a;
  check "large hessian: sweeps" ~hessian_diag:[| 1e3; 1e3 |] ~lipschitz:2.0 ~expect_calls:144 a;
  check "nan lipschitz: sweeps" ~hessian_diag:[| 1e-3; 1e-3 |] ~lipschitz:Float.nan
    ~expect_calls:144 a;
  let point = Bernstein.approximate ~f ~degrees:[| 2; 2 |] (Box.make ~lo:[| 0.5; 0.5 |] ~hi:[| 0.5; 0.5 |]) in
  check "zero-width tie: skipped" ~hessian_diag:[| 0.0; 0.0 |] ~lipschitz:0.0 ~expect_calls:0 point;
  List.iter
    (fun hessian_diag ->
      Alcotest.check_raises "samples_per_dim = 1"
        (Invalid_argument "Bernstein.remainder_sampled: need >= 2 samples") (fun () ->
          ignore (Bernstein.remainder ?hessian_diag ~lipschitz:2.0 ~f ~samples_per_dim:1 a)))
    [ None; Some [| 1e-3; 1e-3 |]; Some [| 1e3; 1e3 |] ]

let suite =
  [
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "degree/terms" `Quick test_degree_terms;
    Alcotest.test_case "add cancellation" `Quick test_add_cancel;
    Alcotest.test_case "mul known" `Quick test_mul_known;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "split_var" `Quick test_split_var;
    Alcotest.test_case "diff" `Quick test_diff;
    Alcotest.test_case "bound_unit constant exact" `Quick test_bound_unit_exact_constant;
    Alcotest.test_case "bound_unit even/odd" `Quick test_bound_unit_even_odd;
    Alcotest.test_case "exponent guard" `Quick test_exponent_range_guard;
    Alcotest.test_case "nvars guard" `Quick test_nvars_guard;
    QCheck_alcotest.to_alcotest prop_bound_unit_sound;
    QCheck_alcotest.to_alcotest prop_mul_eval_homomorphism;
    QCheck_alcotest.to_alcotest prop_ieval_sound;
    QCheck_alcotest.to_alcotest prop_mul_trunc_bit_identical;
    Alcotest.test_case "mul_trunc edge cases" `Quick test_mul_trunc_edges;
    Alcotest.test_case "binomial" `Quick test_binomial;
    Alcotest.test_case "basis partition of unity" `Quick test_basis_partition_of_unity;
    Alcotest.test_case "bernstein linear exact" `Quick test_bernstein_reproduces_linear;
    Alcotest.test_case "bernstein corners" `Quick test_bernstein_interpolates_corners;
    Alcotest.test_case "bernstein to_poly" `Quick test_bernstein_to_poly_consistent;
    Alcotest.test_case "bernstein coeff range" `Quick test_bernstein_coeff_range_bounds_eval;
    Alcotest.test_case "bernstein remainder sound" `Quick test_bernstein_remainder_sound_1d;
    Alcotest.test_case "bernstein remainder tightens" `Quick
      test_bernstein_remainder_decreases_with_samples;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |]) prop_remainder_bit_identical;
    Alcotest.test_case "bernstein remainder skip boundary" `Quick test_remainder_skip_boundary;
  ]
