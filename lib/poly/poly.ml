(* Sparse multivariate polynomials: the polynomial part of Taylor models
   and the target representation for Bernstein approximations of neural
   network controllers.

   Representation: a monomial's exponent vector is packed into a single
   OCaml int, 4 bits per variable (so nvars <= 15 and every exponent
   <= 15 — far above the Taylor-model orders used anywhere in the
   reproduction). Packing makes monomial multiplication a plain integer
   addition and keeps the coefficient storage cheap, which is what makes
   long closed-loop flowpipes affordable.

   Terms live in a pair of parallel arrays sorted by strictly ascending
   packed key. [add] is a linear array merge and [mul] a hash
   accumulation. The Taylor-model product does not go through [mul]: it
   only keeps the terms of degree <= order and bounds the rest, so
   [mul_trunc] multiplies straight into a dense per-(nvars, order) slot
   array and folds the degree > order tail into its enclosure during the
   one ordered scan, without ever building it (see [mul_trunc] below).

   Bit-compatibility contract: every operation performs the SAME float
   additions in the SAME order as the historical Map implementation
   (ascending-key iteration; in a product, contributions to one result
   key accumulate in ascending order of the left factor's key), so
   flowpipes, certificates and counters are bit-identical across
   representations. [mul_trunc ~order a b] is bit-identical to
   [truncate ~order (mul a b)] followed by [bound_unit] of the dropped
   part: same kept keys (zero coefficients included), same coefficient
   bits, same tail bounds. *)

module I = Dwv_interval.Interval

type t = {
  nvars : int;
  keys : int array;
  coeffs : float array;
  (* Lazily computed [-1,1]^n range enclosure. Purely a memo of the
     deterministic [bound_unit] below — concurrent writers race only to
     store the same immutable value, so the field is safe to share across
     domains. *)
  mutable bcache : I.t option;
}

let mk nvars keys coeffs = { nvars; keys; coeffs; bcache = None }

let max_vars = 15
let max_exponent = 15
let bits_per_var = 4

(* 0x111...1: one low bit per nibble, [nvars] nibbles. *)
let parity_mask nvars =
  let m = ref 0 in
  for _ = 1 to nvars do
    m := (!m lsl bits_per_var) lor 1
  done;
  !m

let check_nvars nvars =
  if nvars < 1 || nvars > max_vars then
    invalid_arg "Poly: nvars must be between 1 and 15"

let encode expts =
  let key = ref 0 in
  for i = Array.length expts - 1 downto 0 do
    let e = expts.(i) in
    if e < 0 || e > max_exponent then invalid_arg "Poly: exponent out of range [0, 15]";
    key := (!key lsl bits_per_var) lor e
  done;
  !key

let decode nvars key =
  Array.init nvars (fun i -> (key lsr (i * bits_per_var)) land max_exponent)

let exponent_of key i = (key lsr (i * bits_per_var)) land max_exponent

let key_degree nvars key =
  let d = ref 0 in
  for i = 0 to nvars - 1 do
    d := !d + exponent_of key i
  done;
  !d

let zero nvars =
  check_nvars nvars;
  mk nvars [||] [||]

let const nvars c =
  check_nvars nvars;
  if c = 0.0 then mk nvars [||] [||] else mk nvars [| 0 |] [| c |]

let var nvars i =
  check_nvars nvars;
  if i < 0 || i >= nvars then invalid_arg "Poly.var: index out of range";
  mk nvars [| 1 lsl (i * bits_per_var) |] [| 1.0 |]

let nvars p = p.nvars

let is_zero p = Array.length p.keys = 0

let num_terms p = Array.length p.keys

let degree p =
  let d = ref 0 in
  Array.iter (fun k -> d := max !d (key_degree p.nvars k)) p.keys;
  !d

let constant_term p =
  if Array.length p.keys > 0 && p.keys.(0) = 0 then p.coeffs.(0) else 0.0

(* Binary search for [key]; [Some i] when present, [None] with the
   insertion point otherwise. *)
let find_key p key =
  let lo = ref 0 and hi = ref (Array.length p.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length p.keys && p.keys.(!lo) = key then Ok !lo else Error !lo

let remove_at p i =
  let n = Array.length p.keys in
  let keys = Array.make (n - 1) 0 and coeffs = Array.make (n - 1) 0.0 in
  Array.blit p.keys 0 keys 0 i;
  Array.blit p.coeffs 0 coeffs 0 i;
  Array.blit p.keys (i + 1) keys i (n - 1 - i);
  Array.blit p.coeffs (i + 1) coeffs i (n - 1 - i);
  mk p.nvars keys coeffs

let insert_at p i key c =
  let n = Array.length p.keys in
  let keys = Array.make (n + 1) 0 and coeffs = Array.make (n + 1) 0.0 in
  Array.blit p.keys 0 keys 0 i;
  Array.blit p.coeffs 0 coeffs 0 i;
  keys.(i) <- key;
  coeffs.(i) <- c;
  Array.blit p.keys i keys (i + 1) (n - i);
  Array.blit p.coeffs i coeffs (i + 1) (n - i);
  mk p.nvars keys coeffs

let add_key p key c =
  match find_key p key with
  | Ok i ->
    let s = p.coeffs.(i) +. c in
    if s = 0.0 then remove_at p i
    else begin
      let coeffs = Array.copy p.coeffs in
      coeffs.(i) <- s;
      mk p.nvars p.keys coeffs
    end
  | Error i -> if c = 0.0 then p else insert_at p i key c

let add_term p expts c =
  if Array.length expts <> p.nvars then invalid_arg "Poly.add_term: arity mismatch";
  add_key p (encode expts) c

let of_terms nvars l = List.fold_left (fun p (e, c) -> add_term p e c) (zero nvars) l

(* Descending key order (the order the historical Map fold produced). *)
let to_terms p =
  let acc = ref [] in
  for i = 0 to Array.length p.keys - 1 do
    acc := (decode p.nvars p.keys.(i), p.coeffs.(i)) :: !acc
  done;
  !acc

let map_coeffs f p =
  let n = Array.length p.keys in
  let keys = Array.make n 0 and coeffs = Array.make n 0.0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    (* written in place, kept only when nonzero (no boxed temporary) *)
    coeffs.(!m) <- f p.coeffs.(i);
    if coeffs.(!m) <> 0.0 then begin
      keys.(!m) <- p.keys.(i);
      incr m
    end
  done;
  if !m = n then mk p.nvars keys coeffs
  else mk p.nvars (Array.sub keys 0 !m) (Array.sub coeffs 0 !m)

let neg p = map_coeffs (fun c -> -.c) p

let scale s p = if s = 0.0 then zero p.nvars else map_coeffs (fun c -> s *. c) p

(* Linear merge of the two sorted term arrays; on a shared key the sum is
   a.coeff +. b.coeff (left operand first, as Map.union evaluated it) and
   an exactly-zero sum drops the term. *)
let add a b =
  if a.nvars <> b.nvars then invalid_arg "Poly.add: arity mismatch";
  let na = Array.length a.keys and nb = Array.length b.keys in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let keys = Array.make (na + nb) 0 and coeffs = Array.make (na + nb) 0.0 in
    let i = ref 0 and j = ref 0 and m = ref 0 in
    while !i < na && !j < nb do
      let ka = a.keys.(!i) and kb = b.keys.(!j) in
      if ka < kb then begin
        keys.(!m) <- ka; coeffs.(!m) <- a.coeffs.(!i); incr i; incr m
      end
      else if kb < ka then begin
        keys.(!m) <- kb; coeffs.(!m) <- b.coeffs.(!j); incr j; incr m
      end
      else begin
        coeffs.(!m) <- a.coeffs.(!i) +. b.coeffs.(!j);
        if coeffs.(!m) <> 0.0 then begin keys.(!m) <- ka; incr m end;
        incr i; incr j
      end
    done;
    while !i < na do
      keys.(!m) <- a.keys.(!i); coeffs.(!m) <- a.coeffs.(!i); incr i; incr m
    done;
    while !j < nb do
      keys.(!m) <- b.keys.(!j); coeffs.(!m) <- b.coeffs.(!j); incr j; incr m
    done;
    mk a.nvars (Array.sub keys 0 !m) (Array.sub coeffs 0 !m)
  end

let sub a b = add a (neg b)

(* Monomial product = key addition (no nibble carries as long as the
   combined per-variable exponents stay <= 15, guaranteed for the orders
   used by Taylor models).

   The na*nb key/coefficient products accumulate into a per-domain
   open-addressing scratch table (plain int and float arrays: no boxing,
   no per-operation allocation), then the occupied slots are gathered and
   LSD-radix-sorted by key into the output arrays. This is the innermost
   loop of the whole flowpipe kernel; with ~5k products per call the
   linear-probe accumulate plus byte-wise radix extraction is ~5x faster
   than either a Hashtbl or a Johnson heap merge.

   Bit-compatibility with the historical Map implementation: products are
   generated outer-left / inner-right exactly as before, so the
   contributions to one result key arrive in the same order and the
   coefficient sums round identically. The Map's M.update quirks are
   preserved: a running per-key sum that hits exactly 0.0 evicts the
   entry and a later contribution restarts from its own value; a
   contribution landing on an empty slot is kept even when it is itself
   0.0. *)

(* slot states in [sstate] *)
let st_empty = '\000'
let st_present = '\001'
let st_evicted = '\002' (* key reserved so probe chains stay valid, value absent *)

type mul_scratch = {
  mutable cap : int; (* power of two, 0 before first use *)
  mutable skeys : int array;
  mutable svals : float array;
  mutable sstate : Bytes.t;
  mutable touched : int array; (* slots claimed during the current call *)
  (* radix ping-pong buffers *)
  mutable rk : int array;
  mutable rv : float array;
  mutable rk2 : int array;
  mutable rv2 : float array;
  counts : int array; (* 256 radix histogram *)
}

let scratch_key : mul_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { cap = 0;
        skeys = [||];
        svals = [||];
        sstate = Bytes.empty;
        touched = [||];
        rk = [||];
        rv = [||];
        rk2 = [||];
        rv2 = [||];
        counts = Array.make 256 0 })

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let scratch_resize s cap =
  s.cap <- cap;
  s.skeys <- Array.make cap 0;
  s.svals <- Array.make cap 0.0;
  s.sstate <- Bytes.make cap st_empty;
  s.touched <- Array.make cap 0;
  s.rk <- Array.make cap 0;
  s.rv <- Array.make cap 0.0;
  s.rk2 <- Array.make cap 0;
  s.rv2 <- Array.make cap 0.0

(* Multiplicative hash of a packed key into [0, cap). *)
let slot_hash k cap = (k * 0x2545F4914F6CDD1D) lsr 20 land (cap - 1)

let mul a b =
  if a.nvars <> b.nvars then invalid_arg "Poly.mul: arity mismatch";
  let na = Array.length a.keys and nb = Array.length b.keys in
  if na = 0 then a
  else if nb = 0 then mk a.nvars [||] [||]
  else if na = 1 then begin
    (* scalar-ish fast path: one contribution per key, keys stay sorted *)
    let ka = a.keys.(0) and ca = a.coeffs.(0) in
    mk a.nvars (Array.map (fun kb -> ka + kb) b.keys) (Array.map (fun cb -> ca *. cb) b.coeffs)
  end
  else if nb = 1 then begin
    let kb = b.keys.(0) and cb = b.coeffs.(0) in
    mk a.nvars (Array.map (fun ka -> ka + kb) a.keys) (Array.map (fun ca -> ca *. cb) a.coeffs)
  end
  else begin
    let s = Domain.DLS.get scratch_key in
    (* load factor <= 1/2 even if every product lands on a fresh key *)
    if s.cap < 2 * na * nb then scratch_resize s (next_pow2 (2 * na * nb) 1024);
    let skeys = s.skeys and svals = s.svals and sstate = s.sstate and touched = s.touched in
    let cap = s.cap in
    let nt = ref 0 in
    let maxkey = ref 0 in
    for i = 0 to na - 1 do
      let ka = a.keys.(i) in
      for j = 0 to nb - 1 do
        let k = ka + b.keys.(j) in
        let h = ref (slot_hash k cap) in
        while Bytes.unsafe_get sstate !h <> st_empty && Array.unsafe_get skeys !h <> k do
          h := (!h + 1) land (cap - 1)
        done;
        let h = !h in
        (* the contribution a.coeffs.(i) *. b.coeffs.(j) is written straight
           into the slot: no boxed float temporaries *)
        (match Bytes.unsafe_get sstate h with
        | c0 when c0 = st_empty ->
          Bytes.unsafe_set sstate h st_present;
          Array.unsafe_set skeys h k;
          Array.unsafe_set svals h (a.coeffs.(i) *. b.coeffs.(j));
          touched.(!nt) <- h;
          incr nt;
          if k > !maxkey then maxkey := k
        | c0 when c0 = st_present ->
          Array.unsafe_set svals h (Array.unsafe_get svals h +. (a.coeffs.(i) *. b.coeffs.(j)));
          if Array.unsafe_get svals h = 0.0 then Bytes.unsafe_set sstate h st_evicted
        | _ (* evicted: restart from this contribution *) ->
          Bytes.unsafe_set sstate h st_present;
          Array.unsafe_set svals h (a.coeffs.(i) *. b.coeffs.(j)))
      done
    done;
    (* gather live slots (resetting the table for the next call) *)
    let rk = s.rk and rv = s.rv in
    let n = ref 0 in
    for t = 0 to !nt - 1 do
      let h = touched.(t) in
      if Bytes.unsafe_get sstate h = st_present then begin
        rk.(!n) <- skeys.(h);
        rv.(!n) <- svals.(h);
        incr n
      end;
      Bytes.unsafe_set sstate h st_empty
    done;
    let n = !n in
    (* LSD radix sort of (rk, rv) by key, one byte per pass, ping-ponging
       between (rk, rv) and (rk2, rv2); [flipped] says the sorted-so-far
       data sits in the second pair *)
    let counts = s.counts in
    let flipped = ref false in
    let shift = ref 0 in
    while !maxkey lsr !shift > 0 do
      Array.fill counts 0 256 0;
      let sk = if !flipped then s.rk2 else s.rk in
      for t = 0 to n - 1 do
        let d = (Array.unsafe_get sk t) lsr !shift land 0xff in
        counts.(d) <- counts.(d) + 1
      done;
      let pos = ref 0 in
      for d = 0 to 255 do
        let c = counts.(d) in
        counts.(d) <- !pos;
        pos := !pos + c
      done;
      let sv = if !flipped then s.rv2 else s.rv in
      let dk = if !flipped then s.rk else s.rk2 in
      let dv = if !flipped then s.rv else s.rv2 in
      for t = 0 to n - 1 do
        let k = Array.unsafe_get sk t in
        let d = k lsr !shift land 0xff in
        let p = counts.(d) in
        counts.(d) <- p + 1;
        Array.unsafe_set dk p k;
        Array.unsafe_set dv p (Array.unsafe_get sv t)
      done;
      flipped := not !flipped;
      shift := !shift + 8
    done;
    if !flipped then mk a.nvars (Array.sub s.rk2 0 n) (Array.sub s.rv2 0 n)
    else mk a.nvars (Array.sub s.rk 0 n) (Array.sub s.rv 0 n)
  end

let rec pow p n =
  if n < 0 then invalid_arg "Poly.pow: negative exponent"
  else if n = 0 then const p.nvars 1.0
  else if n = 1 then p
  else begin
    let half = pow p (n / 2) in
    let sq = mul half half in
    if n mod 2 = 0 then sq else mul p sq
  end

(* Split by a key predicate, preserving ascending order on both sides. *)
let partition_keys pred p =
  let n = Array.length p.keys in
  let kk = Array.make n 0 and kc = Array.make n 0.0 in
  let dk = Array.make n 0 and dc = Array.make n 0.0 in
  let nk = ref 0 and nd = ref 0 in
  for i = 0 to n - 1 do
    if pred p.keys.(i) then begin
      kk.(!nk) <- p.keys.(i); kc.(!nk) <- p.coeffs.(i); incr nk
    end
    else begin
      dk.(!nd) <- p.keys.(i); dc.(!nd) <- p.coeffs.(i); incr nd
    end
  done;
  ( mk p.nvars (Array.sub kk 0 !nk) (Array.sub kc 0 !nk),
    mk p.nvars (Array.sub dk 0 !nd) (Array.sub dc 0 !nd) )

(* Split into (terms of degree <= order, terms of degree > order); the
   second component is what a Taylor model moves into its remainder. *)
let truncate ~order p = partition_keys (fun k -> key_degree p.nvars k <= order) p

(* Split into (terms not involving variable i, terms involving it); used
   to retire a disturbance symbol by bounding its contribution. *)
let split_var p i =
  if i < 0 || i >= p.nvars then invalid_arg "Poly.split_var: index out of range";
  partition_keys (fun k -> exponent_of k i = 0) p

(* Split by the coefficient-magnitude predicate [keep]; ascending order
   preserved on both sides (the sweeping fast path of Taylor models). *)
let partition_coeffs keep p =
  let n = Array.length p.keys in
  let kk = Array.make n 0 and kc = Array.make n 0.0 in
  let dk = Array.make n 0 and dc = Array.make n 0.0 in
  let nk = ref 0 and nd = ref 0 in
  for i = 0 to n - 1 do
    if keep p.coeffs.(i) then begin
      kk.(!nk) <- p.keys.(i); kc.(!nk) <- p.coeffs.(i); incr nk
    end
    else begin
      dk.(!nd) <- p.keys.(i); dc.(!nd) <- p.coeffs.(i); incr nd
    end
  done;
  ( mk p.nvars (Array.sub kk 0 !nk) (Array.sub kc 0 !nk),
    mk p.nvars (Array.sub dk 0 !nd) (Array.sub dc 0 !nd) )

(* Largest |coefficient| (0 for the zero polynomial). *)
let max_abs_coeff p =
  let m = [| 0.0 |] in
  for i = 0 to Array.length p.coeffs - 1 do
    m.(0) <- Float.max m.(0) (Float.abs p.coeffs.(i))
  done;
  m.(0)

let eval p x =
  if Array.length x <> p.nvars then invalid_arg "Poly.eval: arity mismatch";
  let acc = ref 0.0 in
  for t = 0 to Array.length p.keys - 1 do
    let k = p.keys.(t) in
    let term = ref p.coeffs.(t) in
    for i = 0 to p.nvars - 1 do
      for _ = 1 to exponent_of k i do
        term := !term *. x.(i)
      done
    done;
    acc := !acc +. !term
  done;
  !acc

(* Generic evaluation in any commutative algebra; used to substitute Taylor
   models (or intervals) for the variables. [var_pow i k] must be the k-th
   power of variable i with k >= 1. *)
let eval_gen p ~const ~var_pow ~add ~mul =
  let acc = ref (const 0.0) in
  for t = 0 to Array.length p.keys - 1 do
    let key = p.keys.(t) in
    let term = ref (const p.coeffs.(t)) in
    for i = 0 to p.nvars - 1 do
      let k = exponent_of key i in
      if k > 0 then term := mul !term (var_pow i k)
    done;
    acc := add !acc !term
  done;
  !acc

(* Sound range enclosure of p over the box (interval evaluation of each
   monomial; tight powers via Interval.pow_int). *)
let ieval p (box : Dwv_interval.Box.t) =
  if Dwv_interval.Box.dim box <> p.nvars then invalid_arg "Poly.ieval: arity mismatch";
  let acc = ref I.zero in
  for t = 0 to Array.length p.keys - 1 do
    let key = p.keys.(t) in
    let term = ref (I.of_point p.coeffs.(t)) in
    for i = 0 to p.nvars - 1 do
      let k = exponent_of key i in
      if k > 0 then term := I.mul !term (I.pow_int box.(i) k)
    done;
    acc := I.add !acc !term
  done;
  !acc

(* Enclosure over the canonical Taylor-model domain [-1,1]^n, on the fast
   path: a monomial with all exponents even ranges over [0, c] (or [c, 0]),
   any other monomial over [-|c|, |c|]. Pure float arithmetic.

   [add_unit_term acc mask key coeffs i] folds the term (key, coeffs.(i))
   into the running bounds acc.(0) (lo) and acc.(1) (hi). It is the one
   definition of that fold: [bound_unit] and the tail scan of
   [mul_trunc] both call it, in ascending key order, so the two produce
   the same bits. The running bounds live in a float array (unboxed),
   and the coefficient is read in place. *)
let[@inline] add_unit_term (acc : float array) mask key (coeffs : float array) i =
  if key = 0 then begin
    (* constant monomial: exact *)
    acc.(0) <- acc.(0) +. coeffs.(i);
    acc.(1) <- acc.(1) +. coeffs.(i)
  end
  else if key land mask = 0 then begin
    (* all exponents even (some positive): monomial value in [0, 1] *)
    if coeffs.(i) >= 0.0 then acc.(1) <- acc.(1) +. coeffs.(i)
    else acc.(0) <- acc.(0) +. coeffs.(i)
  end
  else begin
    acc.(0) <- acc.(0) -. Float.abs coeffs.(i);
    acc.(1) <- acc.(1) +. Float.abs coeffs.(i)
  end

let bound_unit p =
  match p.bcache with
  | Some b -> b
  | None ->
  let mask = parity_mask p.nvars in
  let acc = [| 0.0; 0.0 |] in
  for i = 0 to Array.length p.keys - 1 do
    add_unit_term acc mask p.keys.(i) p.coeffs i
  done;
  let b = I.make acc.(0) acc.(1) in
  p.bcache <- Some b;
  b

(* ---------- fused truncated product ---------- *)

(* [mul_trunc ~order a b] = [truncate ~order (mul a b)] with the dropped
   part replaced by its [bound_unit] enclosure, without building that
   part. In a Taylor-model product almost every coefficient pair lands
   above the model order (at 9 variables and order 3, two full operands
   of 220 terms make 5 005 product terms of which 220 are kept), so
   hashing, sorting and allocating the tail only to fold it into two
   floats is nearly all of the sparse route's cost.

   For a fixed (nvars, order) every product of two degree <= order
   monomials is one of the C(nvars + 2 order, 2 order) monomials of
   degree <= 2 order. A per-domain context enumerates them once in
   ascending packed-key order (dense slot h <-> h-th smallest key), ranks
   the degree <= order ones, and tabulates the slot of every rank pair.
   The kernel then accumulates each coefficient product into its slot
   and makes one ascending scan over the touched slot range: kept slots
   are copied out, tail slots go through [add_unit_term].

   Bit-identity with the sparse route, by construction: the pairs are
   visited outer-left / inner-right as in [mul], so each slot receives
   its contributions in the same order; the slot states follow [mul]'s
   rules (a running sum of exactly 0.0 evicts, a contribution landing on
   an empty or evicted slot restarts from its own value and is kept even
   when it is 0.0); slot order is key order, so the kept terms come out
   sorted and the tail is folded in [bound_unit]'s order. Empty and
   evicted behave alike, so the kernel has one absent state, and an
   absent slot holds -0.0: x +. (-0.0) = x for every x, signed zeros
   included, so restarting from a contribution is the same addition as
   accumulating it and the pair loop only branches on an exact-zero sum.

   The sparse [mul] + [truncate] + [bound_unit] route stays as the only
   fallback: when an operand has a term of degree > order (no rank), when
   2 order exceeds the packed exponent range, or when the context would
   have more than [dense_max_slots] slots. *)

(* 2^15 slots admits order 3 up to 13 variables (the 3-D and oscillator
   flowpipes with 6 or 8 disturbance slots use 9 to 11) and bounds the
   largest admitted product table at a few MB per domain. *)
let dense_max_slots = 1 lsl 15

type dense = {
  d_nvars : int;
  d_order : int;
  d_mask : int;  (* parity_mask d_nvars *)
  nranks : int;  (* number of monomials of degree <= order *)
  rank_keys : int array;  (* their keys, ascending: index = rank *)
  slot_keys : int array;  (* all keys of degree <= 2 order, ascending: index = slot *)
  kept : Bytes.t;  (* '\001' where the slot's degree is <= order *)
  prod : int array;  (* (rank a) * nranks + (rank b) -> slot of the product key *)
  vals : float array;  (* per-slot running sums; -0.0 in every absent slot *)
  state : Bytes.t;  (* st_present, or st_empty when absent; all absent between calls *)
  ra : int array;  (* ranks of the left operand's terms *)
  rb : int array;  (* ranks of the right operand's terms *)
  out_keys : int array;
  out_coeffs : float array;
  tail : float array;  (* [| lo; hi |] of the dropped part *)
}

type dense_cache = { mutable contexts : dense list }

let dense_key : dense_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { contexts = [] })

(* C(n, k), exact: each partial product is itself a binomial. *)
let binomial n k =
  let c = ref 1 in
  for i = 1 to k do
    c := !c * (n - k + i) / i
  done;
  !c

(* Index of [key] in the ascending [keys.(lo .. hi-1)], or -1. *)
let rec search keys lo hi key =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    if keys.(mid) < key then search keys (mid + 1) hi key
    else if keys.(mid) > key then search keys lo mid key
    else mid
  end

let build_dense nvars order nslots =
  let deg = 2 * order in
  let slot_keys = Array.make nslots 0 and kept = Bytes.make nslots '\000' in
  let n = ref 0 in
  (* Exponents are chosen from the highest variable down, each ascending,
     which is exactly ascending packed-key order. *)
  let rec fill var budget key =
    if var < 0 then begin
      slot_keys.(!n) <- key;
      if deg - budget <= order then Bytes.set kept !n '\001';
      incr n
    end
    else
      for e = 0 to budget do
        fill (var - 1) (budget - e) (key lor (e lsl (var * bits_per_var)))
      done
  in
  fill (nvars - 1) deg 0;
  let nranks = binomial (nvars + order) order in
  let rank_keys = Array.make nranks 0 in
  let r = ref 0 in
  for h = 0 to nslots - 1 do
    if Bytes.get kept h = '\001' then begin
      rank_keys.(!r) <- slot_keys.(h);
      incr r
    end
  done;
  let prod = Array.make (nranks * nranks) 0 in
  for i = 0 to nranks - 1 do
    for j = i to nranks - 1 do
      let h = search slot_keys 0 nslots (rank_keys.(i) + rank_keys.(j)) in
      prod.((i * nranks) + j) <- h;
      prod.((j * nranks) + i) <- h
    done
  done;
  {
    d_nvars = nvars;
    d_order = order;
    d_mask = parity_mask nvars;
    nranks;
    rank_keys;
    slot_keys;
    kept;
    prod;
    vals = Array.make nslots (-0.0);
    state = Bytes.make nslots st_empty;
    ra = Array.make nranks 0;
    rb = Array.make nranks 0;
    out_keys = Array.make nranks 0;
    out_coeffs = Array.make nranks 0.0;
    tail = [| 0.0; 0.0 |];
  }

let rec find_dense nvars order = function
  | [] -> None
  | d :: rest ->
    if d.d_nvars = nvars && d.d_order = order then Some d else find_dense nvars order rest

(* This domain's context for (nvars, order), built on first use; [None]
   when the context would exceed [dense_max_slots]. *)
let dense_context nvars order =
  let cache = Domain.DLS.get dense_key in
  match find_dense nvars order cache.contexts with
  | Some _ as hit -> hit
  | None ->
    let nslots = binomial (nvars + (2 * order)) (2 * order) in
    if nslots > dense_max_slots then None
    else begin
      let d = build_dense nvars order nslots in
      cache.contexts <- d :: cache.contexts;
      Some d
    end

(* Write the rank of each of [p]'s terms into [dst]; false as soon as a
   term has degree > order (its key has no rank). Keys ascend, so each
   search starts past the previous rank. *)
let rank_terms d p dst =
  let n = Array.length p.keys in
  let rec go i lo =
    if i = n then true
    else begin
      let r = search d.rank_keys lo d.nranks p.keys.(i) in
      if r < 0 then false
      else begin
        dst.(i) <- r;
        go (i + 1) (r + 1)
      end
    end
  in
  go 0 0

let dense_mul_trunc d a b =
  let na = Array.length a.keys and nb = Array.length b.keys in
  let ra = d.ra and rb = d.rb and prod = d.prod and nr = d.nranks in
  let ac = a.coeffs and bc = b.coeffs and vals = d.vals and state = d.state in
  for i = 0 to na - 1 do
    let row = Array.unsafe_get ra i * nr in
    for j = 0 to nb - 1 do
      let h = Array.unsafe_get prod (row + Array.unsafe_get rb j) in
      (* restarts an absent slot (-0.0) or accumulates into a present one *)
      Array.unsafe_set vals h
        (Array.unsafe_get vals h +. (Array.unsafe_get ac i *. Array.unsafe_get bc j));
      if Array.unsafe_get vals h = 0.0 && Bytes.unsafe_get state h = st_present then begin
        (* a running sum of exactly 0.0 evicts *)
        Bytes.unsafe_set state h st_empty;
        Array.unsafe_set vals h (-0.0)
      end
      else Bytes.unsafe_set state h st_present
    done
  done;
  (* Key addition is monotone, so every touched slot lies between the
     products of the two smallest and of the two largest keys. The scan
     steps over aligned runs of 8 absent slots with one 64-bit load, and
     returns each present slot to absent (state empty, value -0.0). *)
  let first = prod.((ra.(0) * nr) + rb.(0)) in
  let last = prod.((ra.(na - 1) * nr) + rb.(nb - 1)) in
  let slot_keys = d.slot_keys and kept = d.kept and tail = d.tail in
  let out_keys = d.out_keys and out_coeffs = d.out_coeffs in
  tail.(0) <- 0.0;
  tail.(1) <- 0.0;
  let m = ref 0 and h = ref first in
  while !h <= last do
    let s = !h in
    if s land 7 = 0 && s + 7 <= last && Bytes.get_int64_le state s = 0L then h := s + 8
    else begin
      if Bytes.unsafe_get state s = st_present then begin
        if Bytes.unsafe_get kept s = '\001' then begin
          out_keys.(!m) <- slot_keys.(s);
          out_coeffs.(!m) <- vals.(s);
          incr m
        end
        else add_unit_term tail d.d_mask slot_keys.(s) vals s;
        Bytes.unsafe_set state s st_empty;
        Array.unsafe_set vals s (-0.0)
      end;
      h := s + 1
    end
  done;
  (mk a.nvars (Array.sub out_keys 0 !m) (Array.sub out_coeffs 0 !m), I.make tail.(0) tail.(1))

let sparse_mul_trunc ~order a b =
  let keep, drop = truncate ~order (mul a b) in
  (keep, bound_unit drop)

let mul_trunc ~order a b =
  if a.nvars <> b.nvars then invalid_arg "Poly.mul_trunc: arity mismatch";
  if Array.length a.keys = 0 || Array.length b.keys = 0 then (mk a.nvars [||] [||], I.zero)
  else if order < 0 || 2 * order > max_exponent then sparse_mul_trunc ~order a b
  else
    match dense_context a.nvars order with
    | Some d when rank_terms d a d.ra && rank_terms d b d.rb -> dense_mul_trunc d a b
    | _ -> sparse_mul_trunc ~order a b

(* Partial derivative. Differentiating never merges distinct monomials
   (the key shift is injective on terms with a positive exponent), so the
   ascending key order survives the per-term map. *)
let diff p i =
  if i < 0 || i >= p.nvars then invalid_arg "Poly.diff: index out of range";
  let n = Array.length p.keys in
  let keys = Array.make n 0 and coeffs = Array.make n 0.0 in
  let m = ref 0 in
  for t = 0 to n - 1 do
    let e = exponent_of p.keys.(t) i in
    if e > 0 then begin
      let c = p.coeffs.(t) *. float_of_int e in
      if c <> 0.0 then begin
        keys.(!m) <- p.keys.(t) - (1 lsl (i * bits_per_var));
        coeffs.(!m) <- c;
        incr m
      end
    end
  done;
  mk p.nvars (Array.sub keys 0 !m) (Array.sub coeffs 0 !m)

let equal ?(eps = 0.0) a b =
  a.nvars = b.nvars
  &&
  let d = sub a b in
  Array.for_all (fun c -> Float.abs c <= eps) d.coeffs

let pp ppf p =
  if is_zero p then Fmt.string ppf "0"
  else
    Array.iteri
      (fun t key ->
        if t > 0 then Fmt.string ppf " + ";
        Fmt.pf ppf "%.6g" p.coeffs.(t);
        for i = 0 to p.nvars - 1 do
          let k = exponent_of key i in
          if k > 0 then Fmt.pf ppf "*z%d^%d" i k
        done)
      p.keys
