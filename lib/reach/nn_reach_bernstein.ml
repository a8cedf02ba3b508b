(* ReachNN-style abstraction of a neural controller: approximate the
   network over the current reach box with a tensor Bernstein polynomial
   and bound the approximation error by a Lipschitz/sampling remainder.
   The polynomial is then re-expressed over the state Taylor models so the
   flowpipe kernel can integrate it. *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Tm = Dwv_taylor.Taylor_model
module Tm_vec = Dwv_taylor.Tm_vec
module Bernstein = Dwv_poly.Bernstein
module Poly = Dwv_poly.Poly
module Mlp = Dwv_nn.Mlp
module Lipschitz = Dwv_nn.Lipschitz

type config = {
  degrees : int array;        (* Bernstein degree per state dimension *)
  samples_per_dim : int;      (* remainder-estimation grid resolution *)
}

(* A finer grid tightens the sampled remainder (the paper's "tightness"
   knob for ReachNN); its Lipschitz pad scales like L·w·sqrt(n)/(s-1), so
   higher dimensions need fewer samples per axis for the same total work
   but more for the same tightness. The grid costs network evaluations
   only when it can win: the sampled bound is never below its pad, so
   [Bernstein.remainder] skips the sweep whenever the curvature bound is
   already <= the pad, which on small reach boxes is almost always. *)
let default_config ~n =
  if n <= 2 then { degrees = Array.make n 2; samples_per_dim = 48 }
  else { degrees = Array.make n 2; samples_per_dim = 12 }

(* Substitute t_i = (x_i - lo_i) / w_i, as a Taylor model, for each
   normalized Bernstein variable and evaluate the polynomial. Each power
   t_i^k is built once on first use and shared by every monomial that
   needs it (on a 3-D plant at degree 2, 27 monomials share 3 squares);
   [Tm.pow] is pure, so the result is the same as rebuilding it per
   monomial. *)
let poly_on_models ~poly ~box (x : Tm_vec.t) =
  let nv = Tm.nvars x.(0) and ord = Tm.order x.(0) in
  let t =
    Array.mapi
      (fun i tm ->
        let w = I.width (Box.get box i) in
        if w < 1e-12 then Tm.const ~nvars:nv ~order:ord 0.0
        else Tm.scale (1.0 /. w) (Tm.shift (-.I.lo (Box.get box i)) tm))
      x
  in
  let pows = Array.make_matrix (Array.length t) (Poly.degree poly + 1) None in
  let var_pow i k =
    match pows.(i).(k) with
    | Some p -> p
    | None ->
      let p = Tm.pow t.(i) k in
      pows.(i).(k) <- Some p;
      p
  in
  Poly.eval_gen poly
    ~const:(fun c -> Tm.const ~nvars:nv ~order:ord c)
    ~var_pow ~add:Tm.add ~mul:Tm.mul

let c_bernstein_abstractions = Dwv_util.Counters.counter "bernstein_abstractions"

(* Compact parameter tag for certificate content addresses. *)
let config_tag config =
  Fmt.str "deg=[%s] samples=%d"
    (String.concat ","
       (Array.to_list (Array.map string_of_int config.degrees)))
    config.samples_per_dim

(* Control models u = output_scale * net(x) over the symbolic state.
   [pool] parallelizes the network-sampling grids (coefficient tensor
   and remainder sweep) inside this single abstraction; both recombine
   by index, so the models are bit-identical to the sequential ones. *)
let control_models ?pool ~net ~output_scale ~config (x : Tm_vec.t) : Tm_vec.t =
  Dwv_util.Counters.incr c_bernstein_abstractions;
  let x_box = Tm_vec.bound_box x in
  (* local Lipschitz over the current reach box: the first-order
     remainder driver; the curvature bound (available for smooth
     single-hidden-layer nets) is quadratic in the box width and usually
     much tighter on small reach boxes *)
  (* the |scale|·bound products feed the remainder width: step them one
     ulp outward so the round-to-nearest multiply cannot shrink them *)
  let lipschitz =
    Float.succ (Float.abs output_scale *. Lipschitz.local_bound net x_box)
  in
  let hessian_diag =
    Option.map
      (Array.map (fun m -> Float.succ (Float.abs output_scale *. m)))
      (Dwv_nn.Lipschitz.hessian_diag_bound net)
  in
  let n_out = Mlp.n_out net in
  Array.init n_out (fun k ->
      (* Rounding_flow allow: f as computed *is* the function being
         approximated — the remainder is measured against the same
         floating-point evaluation, so its rounding is part of the
         modeled function, not an enclosure step *)
      let f point = output_scale *. (Mlp.forward net point).(k) in
      let approx = Bernstein.approximate ?pool ~f ~degrees:config.degrees x_box in
      let poly = Bernstein.to_poly approx in
      let tm = poly_on_models ~poly ~box:x_box x in
      let rem =
        Bernstein.remainder ?pool ?hessian_diag ~lipschitz ~f
          ~samples_per_dim:config.samples_per_dim approx
      in
      Tm.add_remainder (I.make (-.rem) rem) tm)
