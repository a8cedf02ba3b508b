(** ReachNN-style neural-controller abstraction: Bernstein polynomial over
    the current reach box + Lipschitz/sampling remainder. *)

type config = {
  degrees : int array;     (** Bernstein degree per state dimension *)
  samples_per_dim : int;   (** remainder-estimation grid resolution *)
}

(** Degree 2 per dimension; 48 remainder samples per dimension up to
    2-D, 12 above. *)
val default_config : n:int -> config

(** Compact parameter tag (degrees + samples) for certificate content
    addresses. *)
val config_tag : config -> string

(** Evaluate a polynomial in normalized [0,1]ⁿ grid coordinates on the
    state models of the given box. Each power of a normalized state
    model is built once per call and shared across the monomials. *)
val poly_on_models :
  poly:Dwv_poly.Poly.t -> box:Dwv_interval.Box.t -> Dwv_taylor.Tm_vec.t -> Dwv_taylor.Taylor_model.t

(** Models of u = output_scale · net(x) over the symbolic state [x].
    [pool] parallelizes the network-sampling grids (coefficient tensor,
    remainder sweep) inside this one abstraction; the models are
    bit-identical to the sequential ones. *)
val control_models :
  ?pool:Dwv_parallel.Pool.t ->
  net:Dwv_nn.Mlp.t ->
  output_scale:float ->
  config:config ->
  Dwv_taylor.Tm_vec.t ->
  Dwv_taylor.Tm_vec.t
