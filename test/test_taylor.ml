(* Tests for dwv_taylor: the fundamental Taylor-model invariant (function
   value inside poly(z) + remainder), elementary-function composition,
   symbolic-remainder plumbing. *)

module Tm = Dwv_taylor.Taylor_model
module Tm_vec = Dwv_taylor.Tm_vec
module Poly = Dwv_poly.Poly
module I = Dwv_interval.Interval
module Box = Dwv_interval.Box

let order = 4

let var2 i = Tm.var ~nvars:2 ~order i

(* Check the invariant on a grid: for z in the domain, [truth z] must lie
   inside the model's evaluation at z. *)
let check_sound ~name tm truth =
  for i = -4 to 4 do
    for j = -4 to 4 do
      let z = [| float_of_int i /. 4.0; float_of_int j /. 4.0 |] in
      let enclosure = I.widen ~eps:1e-9 (Tm.eval tm z) in
      let v = truth z in
      if not (I.contains enclosure v) then
        Alcotest.failf "%s: %g not in %a at (%g, %g)" name v I.pp enclosure z.(0) z.(1)
    done
  done

let test_var_identity () =
  check_sound ~name:"var" (var2 0) (fun z -> z.(0))

let test_arith_soundness () =
  let z0 = var2 0 and z1 = var2 1 in
  let tm = Tm.add (Tm.mul z0 z1) (Tm.scale 2.0 (Tm.pow z0 2)) in
  check_sound ~name:"arith" tm (fun z -> (z.(0) *. z.(1)) +. (2.0 *. z.(0) *. z.(0)))

let test_mul_truncation_sound () =
  (* order 2 model of z0^2 * z1^2 (degree 4): dropped terms must be
     covered by the remainder *)
  let z0 = Tm.var ~nvars:2 ~order:2 0 and z1 = Tm.var ~nvars:2 ~order:2 1 in
  let tm = Tm.mul (Tm.mul z0 z0) (Tm.mul z1 z1) in
  check_sound ~name:"truncation" tm (fun z -> z.(0) ** 2.0 *. (z.(1) ** 2.0))

let test_tanh_soundness () =
  let z0 = var2 0 in
  let tm = Tm.tanh_ (Tm.scale 1.5 z0) in
  check_sound ~name:"tanh" tm (fun z -> tanh (1.5 *. z.(0)))

let test_sigmoid_soundness () =
  let z0 = var2 0 in
  let tm = Tm.sigmoid_ (Tm.shift 0.5 z0) in
  check_sound ~name:"sigmoid" tm (fun z -> Dwv_util.Floatx.sigmoid (z.(0) +. 0.5))

let test_exp_soundness () =
  let z0 = var2 0 in
  let tm = Tm.exp_ (Tm.scale 0.5 z0) in
  check_sound ~name:"exp" tm (fun z -> exp (0.5 *. z.(0)))

let test_sin_cos_soundness () =
  let z0 = var2 0 and z1 = var2 1 in
  let arg = Tm.add z0 (Tm.scale 0.5 z1) in
  check_sound ~name:"sin" (Tm.sin_ arg) (fun z -> sin (z.(0) +. (0.5 *. z.(1))));
  check_sound ~name:"cos" (Tm.cos_ arg) (fun z -> cos (z.(0) +. (0.5 *. z.(1))))

let test_relu_cases () =
  (* positive range: identity *)
  let pos = Tm.shift 3.0 (var2 0) in
  check_sound ~name:"relu positive" (Tm.relu pos) (fun z -> z.(0) +. 3.0);
  (* negative range: zero *)
  let neg = Tm.shift (-3.0) (var2 0) in
  check_sound ~name:"relu negative" (Tm.relu neg) (fun _ -> 0.0);
  (* straddling: chord relaxation must still be sound *)
  let mid = Tm.scale 0.8 (var2 0) in
  check_sound ~name:"relu straddle" (Tm.relu mid) (fun z -> Float.max (0.8 *. z.(0)) 0.0)

let test_inv_soundness () =
  let tm = Tm.shift 3.0 (var2 0) in
  check_sound ~name:"inv" (Tm.inv tm) (fun z -> 1.0 /. (z.(0) +. 3.0))

let test_inv_zero_raises () =
  Alcotest.check_raises "range contains zero"
    (Failure "Taylor_model.inv: range contains zero") (fun () ->
      ignore (Tm.inv (var2 0)))

let test_of_interval () =
  let tm = Tm.of_interval ~nvars:2 ~order (I.make 1.0 3.0) in
  (* the remainder is widened outward (layer-5 soundness model), so the
     bound matches up to the widening slack and must still contain the
     original interval *)
  Alcotest.(check bool) "bound" true (I.equal ~eps:1e-12 (Tm.bound tm) (I.make 1.0 3.0));
  Alcotest.(check bool) "bound contains" true (I.subset (I.make 1.0 3.0) (Tm.bound tm))

let test_bound_tighter_than_interval () =
  (* x - x = 0 exactly for models, whereas naive intervals widen *)
  let z0 = var2 0 in
  let diff = Tm.sub z0 z0 in
  Alcotest.(check (float 1e-12)) "cancellation" 0.0 (I.width (Tm.bound diff))

let test_sweep_soundness () =
  let z0 = var2 0 in
  let tm = Tm.add (Tm.scale 1.0 z0) (Tm.scale 1e-14 (Tm.pow z0 3)) in
  let swept = Tm.sweep ~tol:1e-10 tm in
  Alcotest.(check int) "term dropped" 1 (Poly.num_terms (Tm.poly swept));
  check_sound ~name:"sweep" swept (fun z -> z.(0) +. (1e-14 *. (z.(0) ** 3.0)))

let test_absorb_var () =
  let z0 = var2 0 and z1 = var2 1 in
  let tm = Tm.add z0 (Tm.scale 0.5 z1) in
  let absorbed = Tm.absorb_var 1 tm in
  (* z1 gone from the polynomial, bound unchanged (as a superset) *)
  let without, with_ = Poly.split_var (Tm.poly absorbed) 1 in
  ignore without;
  Alcotest.(check bool) "no z1 monomials" true (Poly.is_zero with_);
  check_sound ~name:"absorb" absorbed (fun z -> z.(0) +. (0.5 *. z.(1)))

let test_symbolize_remainder () =
  let z0 = var2 0 in
  let tm = Tm.add_remainder (I.make (-0.25) 0.75) z0 in
  let sym = Tm.symbolize_remainder ~slot:1 tm in
  Alcotest.(check (float 1e-12)) "zero remainder" 0.0 (I.width (Tm.remainder sym));
  (* bound is preserved: [-1,1] + [-0.25, 0.75] = [-1.25, 1.75] *)
  Alcotest.(check bool) "bound preserved" true
    (I.equal ~eps:1e-12 (Tm.bound sym) (I.make (-1.25) 1.75))

let test_symbolize_busy_slot_raises () =
  let z0 = var2 0 in
  let tm = Tm.add z0 (var2 1) in
  Alcotest.check_raises "slot in use"
    (Invalid_argument "Taylor_model.symbolize_remainder: slot still in use") (fun () ->
      ignore (Tm.symbolize_remainder ~slot:1 tm))

let test_of_expr () =
  let module E = Dwv_expr.Expr in
  let x = [| var2 0; var2 1 |] in
  let u = [| Tm.const ~nvars:2 ~order 0.5 |] in
  let e = E.(add (mul (var 0) (var 1)) (input 0)) in
  let tm = Tm.of_expr ~x ~u e in
  check_sound ~name:"of_expr" tm (fun z -> (z.(0) *. z.(1)) +. 0.5)

let test_of_expr_memo_consistent () =
  let module E = Dwv_expr.Expr in
  let x = [| var2 0; var2 1 |] in
  let u = [||] in
  let shared = E.(mul (var 0) (var 1)) in
  let e = E.(add (tanh_ shared) (pow shared 2)) in
  let plain = Tm.of_expr ~x ~u e in
  let memo = Tm.create_memo () in
  let memoized = Tm.of_expr ~memo ~x ~u e in
  Alcotest.(check bool) "same bound" true
    (I.equal ~eps:1e-12 (Tm.bound plain) (Tm.bound memoized))

(* Regression: the memo table is keyed on structural equality (Expr.equal),
   so structurally identical subtrees built as distinct allocations must hit
   the same entry and still give sound, identical results. Under the old
   physical-equality keying this exercised the silent-miss path. *)
let test_of_expr_memo_structural_duplicates () =
  let module E = Dwv_expr.Expr in
  let x = [| var2 0; var2 1 |] in
  let u = [||] in
  (* two separately-allocated copies of sin(x0 * x1) *)
  let copy () = E.(sin_ (mul (var 0) (var 1))) in
  let a = copy () and b = copy () in
  let e = E.(add (tanh_ a) (pow b 2)) in
  let plain = Tm.of_expr ~x ~u e in
  let memo = Tm.create_memo () in
  let memoized = Tm.of_expr ~memo ~x ~u e in
  Alcotest.(check bool) "same bound across duplicate subtrees" true
    (I.equal ~eps:1e-12 (Tm.bound plain) (Tm.bound memoized));
  check_sound ~name:"memo duplicates" memoized (fun z ->
      let s = Float.sin (z.(0) *. z.(1)) in
      Float.tanh s +. (s *. s))

(* ---------------- Tm_vec ---------------- *)

let test_tm_vec_of_box_roundtrip () =
  let box = Box.make ~lo:[| 1.0; -2.0 |] ~hi:[| 3.0; 0.0 |] in
  let v = Tm_vec.of_box ~order box in
  Alcotest.(check bool) "bound_box = box" true (Box.equal ~eps:1e-12 (Tm_vec.bound_box v) box)

let test_tm_vec_extra_vars () =
  let box = Box.make ~lo:[| 0.0 |] ~hi:[| 1.0 |] in
  let v = Tm_vec.of_box ~total_vars:4 ~order box in
  Alcotest.(check int) "nvars" 4 (Tm.nvars v.(0));
  Alcotest.check_raises "too few"
    (Invalid_argument "Tm_vec.of_box: total_vars below the box dimension") (fun () ->
      ignore (Tm_vec.of_box ~total_vars:0 ~order box))

let test_order_guard () =
  Alcotest.check_raises "order 0" (Invalid_argument "Taylor_model.make: order must be within [1, 7]")
    (fun () -> ignore (Tm.make ~poly:(Poly.zero 2) ~rem:I.zero ~order:0))

let prop_compose_soundness =
  QCheck.Test.make ~name:"tanh model sound on random affine arguments" ~count:100
    QCheck.(
      triple (float_range (-1.0) 1.0) (float_range 0.1 1.5) (float_range (-1.0) 1.0))
    (fun (c, s, z) ->
      let tm = Tm.tanh_ (Tm.shift c (Tm.scale s (Tm.var ~nvars:1 ~order:3 0))) in
      let enclosure = I.widen ~eps:1e-9 (Tm.eval tm [| z |]) in
      I.contains enclosure (tanh ((s *. z) +. c)))

(* ---------- the fused product against the historical formula ---------- *)

(* [Tm.mul] as written before the fused kernel: the full sparse product,
   truncated, with the dropped part bounded into the remainder. *)
let mul_oracle a b =
  let order = min (Tm.order a) (Tm.order b) in
  let keep, drop = Poly.truncate ~order (Poly.mul (Tm.poly a) (Tm.poly b)) in
  let bp1 = Poly.bound_unit (Tm.poly a) and bp2 = Poly.bound_unit (Tm.poly b) in
  let ra = Tm.remainder a and rb = Tm.remainder b in
  let rem =
    I.add (Poly.bound_unit drop) (I.add (I.mul bp1 rb) (I.add (I.mul bp2 ra) (I.mul ra rb)))
  in
  (keep, rem, order)

let random_tm st ~nvars ~order =
  let poly = Test_poly.random_poly st ~nvars ~max_degree:(order + 1) in
  let r = Random.State.float st 1e-3 in
  Tm.make ~poly ~rem:(I.make (-.r) r) ~order

(* Operands of equal orders, and (via [add] of mixed orders, which keeps
   the higher-degree terms) operands whose polynomial exceeds the product
   order, so both the dense kernel and the sparse fallback are compared. *)
let prop_mul_matches_oracle =
  QCheck.Test.make ~name:"Tm.mul bit-identical to the sparse formula" ~count:500
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let nvars = 1 + Random.State.int st 9 and order = 1 + Random.State.int st 3 in
      let a = random_tm st ~nvars ~order in
      let a =
        if Random.State.bool st then a
        else Tm.add a (random_tm st ~nvars ~order:(order + 1))
      in
      let b = if Random.State.int st 4 = 0 then Tm.neg a else random_tm st ~nvars ~order in
      let p = Tm.mul a b in
      let keep, rem, ord = mul_oracle a b in
      Tm.order p = ord
      && Test_poly.same_terms (Tm.poly p) keep
      && Test_poly.same_interval (Tm.remainder p) rem)

(* Every monomial of degree <= order over [nvars] variables, with nonzero
   coefficients: the densest model of that shape. *)
let full_model ~nvars ~order =
  let terms = ref [] in
  let rec fill var budget e =
    if var = nvars then terms := (Array.copy e, 1.0 /. float_of_int (2 + List.length !terms)) :: !terms
    else
      for k = 0 to budget do
        e.(var) <- k;
        fill (var + 1) (budget - k) e;
        e.(var) <- 0
      done
  in
  fill 0 order (Array.make nvars 0);
  Tm.make ~poly:(Poly.of_terms nvars !terms) ~rem:I.zero ~order

(* Words this domain has allocated so far. [Gc.minor_words] is exact;
   [Gc.counters] adds the major-heap words, which is where arrays above
   256 words go directly. Promotion counts a surviving block a second
   time, hence the subtraction. ([Gc.quick_stat] is no use here: in
   OCaml 5 it sums every domain's counts, folded in at collections.) *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Two full order-3 models over 9 variables (220 terms each) multiply to
   5 005 terms, 4 785 of them above the order. A product that allocates
   fewer words than that has not materialised the dropped tail. The
   product's allocation is deterministic, so the least of three
   measurements discards anything else the runtime did meanwhile. *)
let test_mul_allocation () =
  let a = full_model ~nvars:9 ~order:3 and b = full_model ~nvars:9 ~order:3 in
  Alcotest.(check int) "full model terms" 220 (Poly.num_terms (Tm.poly a));
  Alcotest.(check int) "sparse product terms" 5005
    (Poly.num_terms (Poly.mul (Tm.poly a) (Tm.poly b)));
  Alcotest.(check int) "kept terms" 220 (Poly.num_terms (Tm.poly (Tm.mul a b)));
  (* the product above built this domain's tables *)
  let measure () =
    let before = allocated_words () in
    ignore (Sys.opaque_identity (Tm.mul a b));
    allocated_words () -. before
  in
  let words = Float.min (measure ()) (Float.min (measure ()) (measure ())) in
  if words >= 5005.0 then
    Alcotest.failf "Tm.mul allocated %.0f words, not below the 5005-term product" words

let suite =
  [
    Alcotest.test_case "var identity" `Quick test_var_identity;
    Alcotest.test_case "arith soundness" `Quick test_arith_soundness;
    Alcotest.test_case "mul truncation sound" `Quick test_mul_truncation_sound;
    Alcotest.test_case "tanh sound" `Quick test_tanh_soundness;
    Alcotest.test_case "sigmoid sound" `Quick test_sigmoid_soundness;
    Alcotest.test_case "exp sound" `Quick test_exp_soundness;
    Alcotest.test_case "sin/cos sound" `Quick test_sin_cos_soundness;
    Alcotest.test_case "relu cases" `Quick test_relu_cases;
    Alcotest.test_case "inv sound" `Quick test_inv_soundness;
    Alcotest.test_case "inv zero raises" `Quick test_inv_zero_raises;
    Alcotest.test_case "of_interval" `Quick test_of_interval;
    Alcotest.test_case "dependency cancellation" `Quick test_bound_tighter_than_interval;
    Alcotest.test_case "sweep sound" `Quick test_sweep_soundness;
    Alcotest.test_case "absorb_var" `Quick test_absorb_var;
    Alcotest.test_case "symbolize remainder" `Quick test_symbolize_remainder;
    Alcotest.test_case "symbolize busy slot" `Quick test_symbolize_busy_slot_raises;
    Alcotest.test_case "of_expr" `Quick test_of_expr;
    Alcotest.test_case "of_expr memo" `Quick test_of_expr_memo_consistent;
    Alcotest.test_case "of_expr memo structural duplicates" `Quick
      test_of_expr_memo_structural_duplicates;
    Alcotest.test_case "tm_vec of_box" `Quick test_tm_vec_of_box_roundtrip;
    Alcotest.test_case "tm_vec extra vars" `Quick test_tm_vec_extra_vars;
    Alcotest.test_case "order guard" `Quick test_order_guard;
    QCheck_alcotest.to_alcotest prop_compose_soundness;
    QCheck_alcotest.to_alcotest prop_mul_matches_oracle;
    Alcotest.test_case "mul allocates below the full product" `Quick test_mul_allocation;
  ]
