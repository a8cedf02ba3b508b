(** Sparse multivariate polynomials (coefficient map over nibble-packed
    exponent keys: at most 15 variables, every exponent at most 15).
    Polynomial part of Taylor models; target of Bernstein approximation
    of NN controllers. *)

type t

(** The zero polynomial over [nvars] variables. *)
val zero : int -> t

(** Constant polynomial. *)
val const : int -> float -> t

(** [var nvars i] is the monomial zᵢ. *)
val var : int -> int -> t

(** Number of variables. *)
val nvars : t -> int

val is_zero : t -> bool

(** Number of stored monomials. *)
val num_terms : t -> int

(** Total degree (0 for the zero polynomial). *)
val degree : t -> int

(** Coefficient of the constant monomial. *)
val constant_term : t -> float

(** Add [c] times the monomial with the given exponents. *)
val add_term : t -> int array -> float -> t

(** Build from (exponents, coefficient) pairs. *)
val of_terms : int -> (int array * float) list -> t

(** All (exponents, coefficient) pairs. *)
val to_terms : t -> (int array * float) list

val neg : t -> t
val scale : float -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Integer power; raises on negative exponent. *)
val pow : t -> int -> t

(** [truncate ~order p] = (low, high): monomials of total degree <= order,
    and the dropped remainder polynomial. *)
val truncate : order:int -> t -> t * t

(** [mul_trunc ~order a b] = (low, tail): the terms of [mul a b] of total
    degree <= order, and the [bound_unit] enclosure of the terms above it.
    Bit-identical to [truncate ~order (mul a b)] followed by [bound_unit]
    of the dropped part (same keys, zero coefficients included, same
    coefficient and bound bits), but the dropped part is never built: the
    product accumulates into a dense per-domain table of the monomials of
    degree <= 2 order. Falls back to that sparse route when an operand
    has a term of degree > order or the table would be too large. *)
val mul_trunc : order:int -> t -> t -> t * Dwv_interval.Interval.t

(** [split_var p i] = (terms without zᵢ, terms with zᵢ). *)
val split_var : t -> int -> t * t

(** [partition_coeffs keep p] = (terms whose coefficient satisfies [keep],
    the rest); both sides preserve term order. *)
val partition_coeffs : (float -> bool) -> t -> t * t

(** Largest absolute coefficient (0 for the zero polynomial). *)
val max_abs_coeff : t -> float

(** Numeric evaluation. *)
val eval : t -> float array -> float

(** Evaluation in an arbitrary commutative algebra ([var_pow i k] is the
    k-th power of variable i, k >= 1). *)
val eval_gen :
  t ->
  const:(float -> 'a) ->
  var_pow:(int -> int -> 'a) ->
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  'a

(** Sound interval enclosure of the range over a box. *)
val ieval : t -> Dwv_interval.Box.t -> Dwv_interval.Interval.t

(** Enclosure over the canonical Taylor-model domain [-1,1]ⁿ. *)
val bound_unit : t -> Dwv_interval.Interval.t

(** Partial derivative with respect to variable [i]. *)
val diff : t -> int -> t

(** Coefficientwise comparison with absolute tolerance. *)
val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
