(* Tests for dwv_la: vector/matrix arithmetic, LU solve, matrix
   exponential, spectral norm. *)

module Vec = Dwv_la.Vec
module Mat = Dwv_la.Mat

let check_float = Alcotest.(check (float 1e-9))

let test_vec_basic () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub a b);
  check_float "dot" 32.0 (Vec.dot a b);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 a);
  check_float "norm_inf" 3.0 (Vec.norm_inf a)

let test_vec_axpy () =
  let x = [| 1.0; 1.0 |] and y = [| 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-12))) "axpy" [| 4.0; 5.0 |] (Vec.axpy ~alpha:2.0 x y)

let test_vec_dim_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: dimension mismatch")
    (fun () -> ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

let test_mat_identity_matmul () =
  let a = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  Alcotest.(check bool) "I*A = A" true (Mat.equal (Mat.matmul (Mat.identity 2) a) a);
  Alcotest.(check bool) "A*I = A" true (Mat.equal (Mat.matmul a (Mat.identity 2)) a)

let test_mat_matmul_known () =
  let a = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  let b = Mat.of_rows [ [| 5.0; 6.0 |]; [| 7.0; 8.0 |] ] in
  let expected = Mat.of_rows [ [| 19.0; 22.0 |]; [| 43.0; 50.0 |] ] in
  Alcotest.(check bool) "2x2 product" true (Mat.equal (Mat.matmul a b) expected)

let test_mat_transpose () =
  let a = Mat.of_rows [ [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] ] in
  let at = Mat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims at);
  check_float "entry" 6.0 (Mat.get at 2 1)

let test_mat_matvec_vecmat () =
  let a = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  Alcotest.(check (array (float 1e-12))) "matvec" [| 5.0; 11.0 |] (Mat.matvec a [| 1.0; 2.0 |]);
  Alcotest.(check (array (float 1e-12))) "vecmat" [| 7.0; 10.0 |] (Mat.vecmat [| 1.0; 2.0 |] a)

let test_mat_solve () =
  let a = Mat.of_rows [ [| 4.0; 3.0 |]; [| 6.0; 3.0 |] ] in
  let b = [| 10.0; 12.0 |] in
  let x = Mat.solve a b in
  Alcotest.(check (array (float 1e-9))) "solution" [| 1.0; 2.0 |] x

let test_mat_solve_with_pivoting () =
  (* leading zero forces a row swap *)
  let a = Mat.of_rows [ [| 0.0; 1.0 |]; [| 2.0; 0.0 |] ] in
  let x = Mat.solve a [| 3.0; 4.0 |] in
  Alcotest.(check (array (float 1e-9))) "pivoted solution" [| 2.0; 3.0 |] x

let test_mat_singular_raises () =
  let a = Mat.of_rows [ [| 1.0; 2.0 |]; [| 2.0; 4.0 |] ] in
  Alcotest.check_raises "singular" (Failure "Mat.lu_decompose: singular matrix") (fun () ->
      ignore (Mat.solve a [| 1.0; 1.0 |]))

let test_mat_inverse () =
  let a = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 5.0 |] ] in
  let prod = Mat.matmul a (Mat.inverse a) in
  Alcotest.(check bool) "A * A^-1 = I" true (Mat.equal ~eps:1e-9 prod (Mat.identity 2))

let test_expm_zero () =
  Alcotest.(check bool) "expm 0 = I" true
    (Mat.equal ~eps:1e-12 (Mat.expm (Mat.zeros 3 3)) (Mat.identity 3))

let test_expm_diagonal () =
  let a = Mat.of_rows [ [| 1.0; 0.0 |]; [| 0.0; 2.0 |] ] in
  let e = Mat.expm a in
  Alcotest.(check (float 1e-9)) "exp(1)" (exp 1.0) (Mat.get e 0 0);
  Alcotest.(check (float 1e-9)) "exp(2)" (exp 2.0) (Mat.get e 1 1);
  Alcotest.(check (float 1e-12)) "off-diagonal" 0.0 (Mat.get e 0 1)

let test_expm_nilpotent () =
  (* exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly *)
  let a = Mat.of_rows [ [| 0.0; 1.0 |]; [| 0.0; 0.0 |] ] in
  let expected = Mat.of_rows [ [| 1.0; 1.0 |]; [| 0.0; 1.0 |] ] in
  Alcotest.(check bool) "nilpotent exp" true (Mat.equal ~eps:1e-12 (Mat.expm a) expected)

let test_expm_rotation () =
  (* exp(t [[0,-1],[1,0]]) is a rotation by t *)
  let t = 0.7 in
  let a = Mat.of_rows [ [| 0.0; -.t |]; [| t; 0.0 |] ] in
  let e = Mat.expm a in
  Alcotest.(check (float 1e-9)) "cos" (cos t) (Mat.get e 0 0);
  Alcotest.(check (float 1e-9)) "-sin" (-.sin t) (Mat.get e 0 1)

let test_integral_expm_identity_limit () =
  (* for A = 0: integral of I over [0, t] = t I *)
  let g = Mat.integral_expm (Mat.zeros 2 2) 0.3 in
  Alcotest.(check bool) "0.3 I" true (Mat.equal ~eps:1e-9 g (Mat.scale 0.3 (Mat.identity 2)))

let test_integral_expm_scalar () =
  (* 1x1 case: integral_0^t e^(a s) ds = (e^(a t) - 1)/a *)
  let a = Mat.of_rows [ [| -0.2 |] ] in
  let g = Mat.integral_expm a 0.1 in
  let expected = (exp (-0.02) -. 1.0) /. -0.2 in
  Alcotest.(check (float 1e-10)) "scalar integral" expected (Mat.get g 0 0)

let test_spectral_norm_diag () =
  let a = Mat.of_rows [ [| 3.0; 0.0 |]; [| 0.0; -7.0 |] ] in
  Alcotest.(check (float 1e-6)) "diag spectral" 7.0 (Mat.spectral_norm a)

let test_spectral_norm_vs_frobenius () =
  (* ||A||_2 <= ||A||_F always *)
  let a = Mat.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  Alcotest.(check bool) "2-norm below Frobenius" true
    (Mat.spectral_norm a <= Mat.norm_fro a +. 1e-9)

let test_outer () =
  let m = Mat.outer [| 1.0; 2.0 |] [| 3.0; 4.0; 5.0 |] in
  Alcotest.(check (pair int int)) "dims" (2, 3) (Mat.dims m);
  check_float "entry" 10.0 (Mat.get m 1 2)

let test_of_rows_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows") (fun () ->
      ignore (Mat.of_rows [ [| 1.0 |]; [| 1.0; 2.0 |] ]))

(* Property: solve(a, matvec(a, x)) = x for random well-conditioned a. *)
let prop_solve_roundtrip =
  QCheck.Test.make ~name:"lu solve roundtrip" ~count:100
    QCheck.(triple (float_range (-5.0) 5.0) (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (a, b, c) ->
      (* diagonally dominant 3x3 to stay well-conditioned *)
      let m =
        Mat.of_rows
          [ [| 10.0; a; b |]; [| a; 12.0; c |]; [| b; c; 15.0 |] ]
      in
      let x = [| 1.0; -2.0; 0.5 |] in
      let x' = Mat.solve m (Mat.matvec m x) in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-8) x x')

let prop_expm_inverse =
  QCheck.Test.make ~name:"expm(A) expm(-A) = I" ~count:50
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (a, b) ->
      let m = Mat.of_rows [ [| a; b |]; [| -.b; a /. 2.0 |] ] in
      let prod = Mat.matmul (Mat.expm m) (Mat.expm (Mat.scale (-1.0) m)) in
      Mat.equal ~eps:1e-7 prod (Mat.identity 2))

let suite =
  [
    Alcotest.test_case "vec basic ops" `Quick test_vec_basic;
    Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
    Alcotest.test_case "vec dim mismatch" `Quick test_vec_dim_mismatch;
    Alcotest.test_case "mat identity" `Quick test_mat_identity_matmul;
    Alcotest.test_case "mat matmul known" `Quick test_mat_matmul_known;
    Alcotest.test_case "mat transpose" `Quick test_mat_transpose;
    Alcotest.test_case "mat matvec/vecmat" `Quick test_mat_matvec_vecmat;
    Alcotest.test_case "mat solve" `Quick test_mat_solve;
    Alcotest.test_case "mat solve pivoting" `Quick test_mat_solve_with_pivoting;
    Alcotest.test_case "mat singular raises" `Quick test_mat_singular_raises;
    Alcotest.test_case "mat inverse" `Quick test_mat_inverse;
    Alcotest.test_case "expm zero" `Quick test_expm_zero;
    Alcotest.test_case "expm diagonal" `Quick test_expm_diagonal;
    Alcotest.test_case "expm nilpotent" `Quick test_expm_nilpotent;
    Alcotest.test_case "expm rotation" `Quick test_expm_rotation;
    Alcotest.test_case "integral_expm zero matrix" `Quick test_integral_expm_identity_limit;
    Alcotest.test_case "integral_expm scalar" `Quick test_integral_expm_scalar;
    Alcotest.test_case "spectral norm diagonal" `Quick test_spectral_norm_diag;
    Alcotest.test_case "spectral vs frobenius" `Quick test_spectral_norm_vs_frobenius;
    Alcotest.test_case "outer product" `Quick test_outer;
    Alcotest.test_case "of_rows ragged" `Quick test_of_rows_ragged;
    QCheck_alcotest.to_alcotest prop_solve_roundtrip;
    QCheck_alcotest.to_alcotest prop_expm_inverse;
  ]
