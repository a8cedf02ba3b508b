(* Taylor models (Berz & Makino): a polynomial over symbolic variables
   z in [-1,1]^n plus a rigorous interval remainder. The fundamental
   invariant maintained by every operation:

     for every z in [-1,1]^n,  f(z)  in  poly(z) + rem

   where f is the exact function the model abstracts. Taylor models are the
   representation POLAR propagates through neural-network layers and the
   representation our validated flowpipe integrator uses for the reachable
   state. *)

module I = Dwv_interval.Interval
module Poly = Dwv_poly.Poly
module Box = Dwv_interval.Box

type t = { poly : Poly.t; rem : I.t; order : int }

let max_order = 7 (* products stay within Poly's packed-nibble exponents *)

let make ~poly ~rem ~order =
  if order < 1 || order > max_order then
    invalid_arg "Taylor_model.make: order must be within [1, 7]";
  let low, high = Poly.truncate ~order poly in
  if Poly.is_zero high then { poly = low; rem; order }
  else { poly = low; rem = I.add rem (Poly.bound_unit high); order }

let nvars tm = Poly.nvars tm.poly
let poly tm = tm.poly
let remainder tm = tm.rem
let order tm = tm.order

let const ~nvars ~order c = { poly = Poly.const nvars c; rem = I.zero; order }

let var ~nvars ~order i = { poly = Poly.var nvars i; rem = I.zero; order }

(* Abstract an interval as a Taylor model with no symbolic dependency.
   The symmetrized remainder is widened: mid and rad round to nearest, so
   mid +- rad can undershoot the original bounds by 1/2 ulp each. *)
let of_interval ~nvars ~order iv =
  { poly = Poly.const nvars (I.mid iv);
    rem = I.widen (I.make (-.I.rad iv) (I.rad iv));
    order }

(* Sound range enclosure. *)
let bound tm = I.add (Poly.bound_unit tm.poly) tm.rem

(* Evaluate at a concrete z (the result is the interval poly(z) + rem). *)
let eval tm z = I.shift (Poly.eval tm.poly z) tm.rem

let constant_term tm = Poly.constant_term tm.poly

let neg tm = { tm with poly = Poly.neg tm.poly; rem = I.neg tm.rem }

let join_order a b = min a.order b.order

let add a b =
  if nvars a <> nvars b then invalid_arg "Taylor_model.add: arity mismatch";
  { poly = Poly.add a.poly b.poly; rem = I.add a.rem b.rem; order = join_order a b }

let sub a b =
  if nvars a <> nvars b then invalid_arg "Taylor_model.sub: arity mismatch";
  { poly = Poly.sub a.poly b.poly; rem = I.sub a.rem b.rem; order = join_order a b }

let scale s tm = { tm with poly = Poly.scale s tm.poly; rem = I.scale s tm.rem }

let shift c tm = { tm with poly = Poly.add tm.poly (Poly.const (nvars tm) c) }

let add_remainder iv tm = { tm with rem = I.add tm.rem iv }

(* Prune monomials with negligible coefficients into the remainder. The
   closed-loop iteration fills the polynomial with cross-term debris many
   orders of magnitude below the leading coefficients; sweeping keeps the
   representation sparse (and hence the flowpipe fast) at a remainder cost
   bounded by the swept coefficients themselves. *)
let sweep ?(tol = 1e-10) tm =
  let scale = Float.max 1e-30 (Poly.max_abs_coeff tm.poly) in
  let cutoff = tol *. scale in
  let kept, dropped = Poly.partition_coeffs (fun c -> Float.abs c > cutoff) tm.poly in
  if Poly.is_zero dropped then tm
  else { tm with poly = kept; rem = I.add tm.rem (Poly.bound_unit dropped) }

(* Retire symbol i: bound every monomial involving z_i over the domain and
   fold it into the interval remainder. Used to recycle disturbance
   symbols (POLAR-style symbolic remainders with a bounded symbol
   budget). *)
let absorb_var i tm =
  let keep, drop = Poly.split_var tm.poly i in
  if Poly.is_zero drop then tm
  else { tm with poly = keep; rem = I.add tm.rem (Poly.bound_unit drop) }

(* Move the interval remainder onto a fresh symbol z_slot (which must not
   occur in the polynomial — absorb it first): the resulting model has a
   zero interval remainder but remembers, symbolically, that subsequent
   steps all see the SAME disturbance value, which lets a contractive
   closed loop cancel it instead of compounding it. *)
let symbolize_remainder ~slot tm =
  let keep, stale = Poly.split_var tm.poly slot in
  if not (Poly.is_zero stale) then
    invalid_arg "Taylor_model.symbolize_remainder: slot still in use";
  let m = I.mid tm.rem and r = I.rad tm.rem in
  if r = 0.0 then { tm with poly = Poly.add_term keep (Array.make (nvars tm) 0) m; rem = I.zero }
  else begin
    let e = Array.make (nvars tm) 0 in
    e.(slot) <- 1;
    let poly = Poly.add_term (Poly.add_term keep (Array.make (nvars tm) 0) m) e r in
    { tm with poly; rem = I.zero }
  end

(* (p1 + r1)(p2 + r2) = p1 p2 + p1 r2 + p2 r1 + r1 r2; the product
   polynomial is truncated to the model order and the dropped tail is
   bounded into the remainder. [Poly.mul_trunc] does both in one pass and
   never builds the tail. *)
let mul a b =
  if nvars a <> nvars b then invalid_arg "Taylor_model.mul: arity mismatch";
  let order = join_order a b in
  let keep, tail = Poly.mul_trunc ~order a.poly b.poly in
  let bp1 = Poly.bound_unit a.poly and bp2 = Poly.bound_unit b.poly in
  let rem =
    I.add tail (I.add (I.mul bp1 b.rem) (I.add (I.mul bp2 a.rem) (I.mul a.rem b.rem)))
  in
  { poly = keep; rem; order }

let rec pow tm n =
  if n < 0 then invalid_arg "Taylor_model.pow: negative exponent"
  else if n = 0 then const ~nvars:(nvars tm) ~order:tm.order 1.0
  else if n = 1 then tm
  else begin
    let half = pow tm (n / 2) in
    let sq = mul half half in
    if n mod 2 = 0 then sq else mul tm sq
  end

(* ------------------------------------------------------------------ *)
(* Composition with scalar elementary functions via Taylor expansion
   around the model's constant term, with a Lagrange remainder bounded
   over the model's range. *)

type scalar_fn = {
  deriv_at : float -> int -> float;       (* phi^(k)(c) *)
  deriv_bound : I.t -> int -> I.t;        (* enclosure of phi^(k) over an interval *)
}

let factorial k =
  let acc = ref 1.0 in
  for i = 2 to k do
    acc := !acc *. float_of_int i
  done;
  !acc

let compose fn tm =
  let order = tm.order in
  let c = constant_term tm in
  (* d = tm - c has zero constant term *)
  let d = shift (-.c) tm in
  let range = bound tm in
  (* Taylor polynomial sum phi^(k)(c)/k! d^k, Horner over TMs *)
  let acc = ref (const ~nvars:(nvars tm) ~order (fn.deriv_at c 0)) in
  let dk = ref (const ~nvars:(nvars tm) ~order 1.0) in
  for k = 1 to order do
    dk := mul !dk d;
    acc := add !acc (scale (fn.deriv_at c k /. factorial k) !dk)
  done;
  (* Lagrange remainder: phi^(order+1)(xi)/ (order+1)! * d^(order+1),
     xi anywhere in the model's range *)
  let d_pow = I.pow_int (bound d) (order + 1) in
  let lagrange =
    I.scale (1.0 /. factorial (order + 1)) (I.mul (fn.deriv_bound range (order + 1)) d_pow)
  in
  add_remainder lagrange !acc

(* The derivative-polynomial memo tables below are the only module-level
   mutable state on the verifier's hot path. Parallel gradient probes hit
   them from several domains at once, so each domain owns its own table
   via Domain.DLS: lookups never contend on a lock, at the cost of each
   domain rebuilding the (tiny, deterministic) polynomial family once.
   The cached values are immutable, so per-domain copies are
   interchangeable. *)
let memo_deriv_poly key n build =
  let table = Domain.DLS.get key in
  match Hashtbl.find_opt table n with
  | Some p -> p
  | None ->
    let p = build n in
    Hashtbl.replace table n p;
    p

(* tanh derivatives: phi^(n)(x) = P_n(tanh x) with P_0(y) = y and
   P_{n+1}(y) = P_n'(y) (1 - y^2). Bounds come from interval-evaluating
   P_n over the tanh image of the interval. *)
let tanh_deriv_polys = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let tanh_poly n =
  memo_deriv_poly tanh_deriv_polys n @@ fun n ->
  let rec build k =
    if k = 0 then Poly.var 1 0
    else begin
      let prev = build (k - 1) in
      let dp = Poly.diff prev 0 in
      let one_minus_sq = Poly.sub (Poly.const 1 1.0) (Poly.pow (Poly.var 1 0) 2) in
      Poly.mul dp one_minus_sq
    end
  in
  build n

let tanh_fn =
  {
    deriv_at = (fun c n -> Poly.eval (tanh_poly n) [| tanh c |]);
    deriv_bound =
      (fun iv n ->
        let y = I.tanh_ iv in
        Poly.ieval (tanh_poly n) [| y |]);
  }

(* sigmoid derivatives: phi^(n)(x) = Q_n(sigma(x)) with Q_0(s) = s,
   Q_{n+1}(s) = Q_n'(s) s (1 - s). *)
let sigmoid_deriv_polys = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let sigmoid_poly n =
  memo_deriv_poly sigmoid_deriv_polys n @@ fun n ->
  let rec build k =
    if k = 0 then Poly.var 1 0
    else begin
      let prev = build (k - 1) in
      let dp = Poly.diff prev 0 in
      let s_one_minus_s = Poly.mul (Poly.var 1 0) (Poly.sub (Poly.const 1 1.0) (Poly.var 1 0)) in
      Poly.mul dp s_one_minus_s
    end
  in
  build n

let sigmoid_fn =
  {
    deriv_at = (fun c n -> Poly.eval (sigmoid_poly n) [| Dwv_util.Floatx.sigmoid c |]);
    deriv_bound =
      (fun iv n ->
        let s = I.sigmoid_ iv in
        Poly.ieval (sigmoid_poly n) [| s |]);
  }

let exp_fn =
  {
    deriv_at = (fun c _ -> exp c);
    deriv_bound = (fun iv _ -> I.exp_ iv);
  }

(* sin^(n) cycles through sin, cos, -sin, -cos. *)
let sin_fn =
  let point c n =
    match n mod 4 with
    | 0 -> sin c
    | 1 -> cos c
    | 2 -> -.sin c
    | _ -> -.cos c
  in
  let bound iv n =
    match n mod 4 with
    | 0 -> I.sin_ iv
    | 1 -> I.cos_ iv
    | 2 -> I.neg (I.sin_ iv)
    | _ -> I.neg (I.cos_ iv)
  in
  { deriv_at = point; deriv_bound = bound }

let cos_fn =
  let point c n =
    match n mod 4 with
    | 0 -> cos c
    | 1 -> -.sin c
    | 2 -> -.cos c
    | _ -> sin c
  in
  let bound iv n =
    match n mod 4 with
    | 0 -> I.cos_ iv
    | 1 -> I.neg (I.sin_ iv)
    | 2 -> I.neg (I.cos_ iv)
    | _ -> I.sin_ iv
  in
  { deriv_at = point; deriv_bound = bound }

(* 1/t: phi^(n)(c) = (-1)^n n! / c^(n+1). Requires 0 outside the range. *)
let inv_fn =
  {
    deriv_at =
      (fun c n ->
        let sign = if n mod 2 = 0 then 1.0 else -1.0 in
        sign *. factorial n /. (c ** float_of_int (n + 1)));
    deriv_bound =
      (fun iv n ->
        let sign = if n mod 2 = 0 then 1.0 else -1.0 in
        I.scale (sign *. factorial n) (I.inv (I.pow_int iv (n + 1))));
  }

let tanh_ tm = compose tanh_fn tm
let sigmoid_ tm = compose sigmoid_fn tm
let exp_ tm = compose exp_fn tm
let sin_ tm = compose sin_fn tm
let cos_ tm = compose cos_fn tm

let inv tm =
  if I.contains (bound tm) 0.0 then failwith "Taylor_model.inv: range contains zero";
  compose inv_fn tm

let div a b = mul a (inv b)

(* ReLU: exact when the model's range is sign-definite; otherwise the
   standard chord relaxation over [lo, hi]: relu lies between the chord
   lambda (x - lo) and the chord shifted down by its maximal gap
   d = hi (-lo) / (hi - lo) attained at x = 0. *)
let relu tm =
  let range = bound tm in
  let lo = I.lo range and hi = I.hi range in
  if lo >= 0.0 then tm
  else if hi <= 0.0 then const ~nvars:(nvars tm) ~order:tm.order 0.0
  else begin
    let lambda = hi /. (hi -. lo) in
    let gap = hi *. -.lo /. (hi -. lo) in
    let chord = shift (-.(lambda *. lo)) (scale lambda tm) in
    let centered = shift (-.(gap /. 2.0)) chord in
    add_remainder (I.widen (I.make (-.(gap /. 2.0)) (gap /. 2.0))) centered
  end

(* Evaluate a dynamics expression with Taylor models substituted for the
   state and input variables. Lie-derivative tables share large subtrees
   (physically, thanks to hash-consing), so evaluation memoizes when
   given a [memo] table — one table per flowpipe step covers all
   coordinates and all derivative orders. Hash-consed expressions make
   both sides of the lookup O(1): [Expr.equal] is a pointer compare and
   [Expr.hash] a precomputed field, so a memo hit costs a bucket probe
   instead of a deep traversal. *)

module Expr_memo = Hashtbl.Make (struct
  type t = Dwv_expr.Expr.t

  let equal = Dwv_expr.Expr.equal
  let hash = Dwv_expr.Expr.hash
end)

type memo = t Expr_memo.t

let create_memo () : memo = Expr_memo.create 256

let of_expr ?memo ~x ~u e =
  if Array.length x = 0 then invalid_arg "Taylor_model.of_expr: empty state";
  let nv = nvars x.(0) and ord = x.(0).order in
  let module E = Dwv_expr.Expr in
  let rec go e =
    match memo with
    | Some table -> (
      match Expr_memo.find_opt table e with
      | Some tm -> tm
      | None ->
        let tm = compute e in
        Expr_memo.add table e tm;
        tm)
    | None -> compute e
  and compute e =
    match e.E.node with
    | E.Const c -> const ~nvars:nv ~order:ord c
    | E.Var i -> x.(i)
    | E.Input j -> u.(j)
    | E.Add (a, b) -> add (go a) (go b)
    | E.Sub (a, b) -> sub (go a) (go b)
    | E.Mul (a, b) -> mul (go a) (go b)
    | E.Div (a, b) -> div (go a) (go b)
    | E.Neg a -> neg (go a)
    | E.Pow (a, n) -> pow (go a) n
    | E.Sin a -> sin_ (go a)
    | E.Cos a -> cos_ (go a)
    | E.Exp a -> exp_ (go a)
    | E.Tanh a -> tanh_ (go a)
  in
  go e

let pp ppf tm =
  Fmt.pf ppf "@[<hov 2>{poly = %a;@ rem = %a;@ order = %d}@]" Poly.pp tm.poly I.pp tm.rem
    tm.order
