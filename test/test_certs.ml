(* Certificate suite (the `@certs` alias): the encode/decode round-trip
   is bit-exact, any single-byte mutation is rejected, the directed
   interval layer genuinely over-approximates, emitted certificates
   full-validate with zero unchecked steps, and the crash-safe cache
   replays bit-identically at any domain count. Spawns domains and
   touches disk, so it stays out of the default runtest next to
   @faults and @parallel. *)

module I = Dwv_interval.Interval
module Box = Dwv_interval.Box
module Cert = Dwv_cert.Cert
module Cert_ival = Dwv_cert.Cert_ival
module Cert_key = Dwv_cert.Cert_key
module Cert_check = Dwv_cert.Cert_check
module Cert_cache = Dwv_cert.Cert_cache
module Verifier = Dwv_reach.Verifier
module Spec = Dwv_core.Spec
module Controller = Dwv_core.Controller
module Learner = Dwv_core.Learner
module Metrics = Dwv_core.Metrics
module Pool = Dwv_parallel.Pool
module Fault = Dwv_robust.Fault
module A = Dwv_systems.Acc

(* ---------------- scratch directories ---------------- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dwv_certs_%s_%d" tag (Unix.getpid ()))
  in
  remove_tree dir;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Emit one real certificate through the acc robust verifier and hand
   back both the decoded value and its on-disk bytes. *)
let emitted_cert tag =
  let dir = fresh_dir tag in
  let cache = Cert_cache.create ~dir () in
  let report = A.verify_robust ~cache A.initial_controller in
  Alcotest.(check bool) "emission produced a pipe" true
    (Option.is_some report.Verifier.rung);
  let path =
    match Cert_cache.last_store_path cache with
    | Some p -> p
    | None -> Alcotest.fail "no certificate stored"
  in
  let raw = read_file path in
  match Cert.decode raw with
  | Ok cert -> (dir, cache, cert, raw)
  | Error m -> Alcotest.fail ("emitted certificate does not decode: " ^ m)

(* ---------------- qcheck: format properties ---------------- *)

let gen_cert : Cert.t QCheck.Gen.t =
  let open QCheck.Gen in
  let finite = float_range (-1e6) 1e6 in
  let interval =
    map2 (fun a b -> I.make (Float.min a b) (Float.max a b)) finite finite
  in
  let box d = map Box.of_intervals (array_repeat d interval) in
  int_range 1 3 >>= fun dim ->
  int_range 1 4 >>= fun nsegs ->
  box dim >>= fun x0 ->
  box dim >>= fun unsafe ->
  box dim >>= fun goal ->
  oneof
    [
      return Cert.Opaque;
      map
        (fun rows -> Cert.Affine rows)
        (array_size (int_range 1 2) (array_repeat (dim + 1) finite));
    ]
  >>= fun law ->
  oneofl [ Cert.Reach_avoid; Cert.Unsafe; Cert.Unknown ] >>= fun verdict ->
  array_repeat (nsegs + 1) (box dim) >>= fun step_boxes ->
  array_repeat nsegs (box dim) >>= fun segment_boxes ->
  oneof [ return [||]; array_repeat nsegs (box 1) ] >>= fun controls ->
  oneof [ return [||]; array_repeat nsegs (opt (box dim)) ] >>= fun enclosures ->
  oneof [ return [||]; array_repeat nsegs (float_range 0.0 1.0) ]
  >>= fun remainders ->
  float_range 1e-3 1.0 >>= fun delta ->
  string_size ~gen:printable (int_range 0 8) >>= fun backend ->
  string_size ~gen:printable (int_range 0 8) >>= fun params ->
  map Int64.of_int int >>= fun fingerprint ->
  return
    {
      Cert.fingerprint;
      backend;
      params;
      delta;
      dim;
      x0;
      unsafe;
      goal;
      law;
      verdict;
      step_boxes;
      segment_boxes;
      controls;
      enclosures;
      remainders;
    }

let arb_cert = QCheck.make ~print:(fun c -> Fmt.str "%a" Cert.pp c) gen_cert

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"encode |> decode is the identity" arb_cert
    (fun c ->
      match Cert.decode (Cert.encode c) with
      | Ok c' -> Cert.equal c c'
      | Error m -> QCheck.Test.fail_reportf "round-trip decode failed: %s" m)

(* FNV footer: substituting any single byte anywhere (header, payload,
   or the checksum itself) must never leave the certificate Valid. *)
let prop_mutation_never_valid =
  QCheck.Test.make ~count:300 ~name:"single-byte mutation is never Valid"
    QCheck.(triple arb_cert (int_bound 1_000_000) (int_bound 255))
    (fun (c, pos, byte) ->
      let raw = Cert.encode c in
      let pos = pos mod String.length raw in
      let old = Char.code raw.[pos] in
      let byte = if byte = old then (byte + 1) land 0xff else byte in
      let bad = Bytes.of_string raw in
      Bytes.set bad pos (Char.chr byte);
      match Cert_check.validate (Bytes.unsafe_to_string bad) with
      | Cert_check.Valid, _ ->
        QCheck.Test.fail_reportf "mutation at byte %d accepted" pos
      | (Cert_check.Tampered _ | Cert_check.Stale _ | Cert_check.Malformed _), _ ->
        true)

(* ---------------- qcheck: directed rounding is outward ---------------- *)

let arb_ival_sample =
  let open QCheck.Gen in
  let f = float_range (-5.0) 5.0 in
  let t = float_range 0.0 1.0 in
  QCheck.make
    ~print:(fun ((a, b), (c, d), (tx, ty)) ->
      Printf.sprintf "x=(%g,%g) y=(%g,%g) t=(%g,%g)" a b c d tx ty)
    (map3
       (fun xy uv ts -> (xy, uv, ts))
       (pair f f) (pair f f) (pair t t))

let prop_ival_containment =
  QCheck.Test.make ~count:500 ~name:"directed ops contain sampled points"
    arb_ival_sample
    (fun ((a, b), (c, d), (tx, ty)) ->
      let xlo = Float.min a b and xhi = Float.max a b in
      let ylo = Float.min c d and yhi = Float.max c d in
      let x = Cert_ival.make xlo xhi and y = Cert_ival.make ylo yhi in
      let sample lo hi t = Float.min hi (Float.max lo (lo +. (t *. (hi -. lo)))) in
      let px = sample xlo xhi tx and py = sample ylo yhi ty in
      let inside v iv = Cert_ival.lo iv <= v && v <= Cert_ival.hi iv in
      inside (px +. py) (Cert_ival.add x y)
      && inside (px -. py) (Cert_ival.sub x y)
      && inside (px *. py) (Cert_ival.mul x y)
      && inside (Float.exp px) (Cert_ival.exp_ x)
      && inside (sin px) (Cert_ival.sin_ x)
      && inside (cos py) (Cert_ival.cos_ y))

let test_affine_range_contains_corners () =
  let rows = [| [| 1.5; -2.0; 0.25 |] |] in
  let x = Cert_ival.of_box (Box.make ~lo:[| -1.0; 2.0 |] ~hi:[| 1.0; 3.0 |]) in
  let r = (Cert_ival.affine_range rows x).(0) in
  List.iter
    (fun (a, b) ->
      let v = (1.5 *. a) -. (2.0 *. b) +. 0.25 in
      Alcotest.(check bool) "corner inside affine range" true
        (Cert_ival.lo r <= v && v <= Cert_ival.hi r))
    [ (-1.0, 2.0); (-1.0, 3.0); (1.0, 2.0); (1.0, 3.0) ]

(* ---------------- content addresses ---------------- *)

let test_fingerprint_sensitivity () =
  let fp ?(tag = "t") ?(steps = A.spec.Spec.steps) theta =
    Cert_key.fingerprint ~f:A.dynamics ~theta ~x0:A.spec.Spec.x0
      ~unsafe:A.spec.Spec.unsafe ~goal:A.spec.Spec.goal ~delta:A.delta ~steps ~tag
  in
  let a = fp [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "deterministic" true
    (Int64.equal a (fp [| 1.0; 2.0; 3.0 |]));
  Alcotest.(check bool) "theta-sensitive" true
    (not (Int64.equal a (fp [| 1.0; 2.0; 3.0000001 |])));
  Alcotest.(check bool) "steps-sensitive" true
    (not (Int64.equal a (fp ~steps:(A.spec.Spec.steps + 1) [| 1.0; 2.0; 3.0 |])));
  Alcotest.(check bool) "tag-sensitive" true
    (not (Int64.equal a (fp ~tag:"other" [| 1.0; 2.0; 3.0 |])))

(* ---------------- emission full-validates ---------------- *)

let test_emitted_cert_full_validates () =
  let dir, _cache, cert, raw = emitted_cert "emit" in
  (match
     Cert_check.validate ~level:Cert_check.Full ~expected:cert.Cert.fingerprint
       ~f:A.dynamics raw
   with
  | Cert_check.Valid, rep ->
    Alcotest.(check int) "every step flow-checked" A.spec.Spec.steps
      rep.Cert_check.checked;
    Alcotest.(check int) "no unchecked steps" 0 rep.Cert_check.unchecked
  | v, _ ->
    Alcotest.fail ("full validation: " ^ Cert_check.verdict_check_to_string v));
  remove_tree dir

let test_wrong_expected_address_is_stale () =
  let dir, _cache, cert, raw = emitted_cert "stale" in
  (match
     Cert_check.validate ~expected:(Int64.lognot cert.Cert.fingerprint) raw
   with
  | Cert_check.Stale _, _ -> ()
  | v, _ ->
    Alcotest.fail ("expected Stale, got " ^ Cert_check.verdict_check_to_string v));
  remove_tree dir

(* A forged claim with a correct checksum: keep every recorded box but
   swap the claimed verdict for one the boxes do not support. The
   independent re-derivation must call it Tampered. *)
let test_forged_claim_is_tampered () =
  let dir, _cache, cert, _raw = emitted_cert "forge" in
  Alcotest.(check bool) "clean cert validates" true
    (fst (Cert_check.validate_cert cert) = Cert_check.Valid);
  let forged_verdict =
    match Cert_check.derive_verdict cert with
    | Cert.Reach_avoid -> Cert.Unsafe
    | Cert.Unsafe | Cert.Unknown -> Cert.Reach_avoid
  in
  let forged = { cert with Cert.verdict = forged_verdict } in
  (match Cert_check.validate_cert forged with
  | Cert_check.Tampered _, _ -> ()
  | v, _ ->
    Alcotest.fail
      ("expected Tampered, got " ^ Cert_check.verdict_check_to_string v));
  remove_tree dir

(* ---------------- cache behavior ---------------- *)

let test_cache_store_find_gc () =
  let dir, cache, cert, _raw = emitted_cert "cache" in
  Cert_cache.reset_stats cache;
  (match Cert_cache.find cache ~fingerprint:cert.Cert.fingerprint with
  | Some c -> Alcotest.(check bool) "hit is bit-identical" true (Cert.equal c cert)
  | None -> Alcotest.fail "expected a hit");
  Alcotest.(check bool) "unknown address misses" true
    (Cert_cache.find cache ~fingerprint:(Int64.lognot cert.Cert.fingerprint) = None);
  let s = Cert_cache.stats cache in
  Alcotest.(check int) "one hit" 1 s.Cert_cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cert_cache.misses;
  Alcotest.(check int) "no rejects" 0 s.Cert_cache.rejects;
  (* gc under the cap keeps the file but clears the memory tier: the
     next hit must come back off disk, still bit-identical *)
  Alcotest.(check int) "gc under cap deletes nothing" 0 (Cert_cache.gc cache ~keep:64);
  (match Cert_cache.find cache ~fingerprint:cert.Cert.fingerprint with
  | Some c -> Alcotest.(check bool) "disk hit bit-identical" true (Cert.equal c cert)
  | None -> Alcotest.fail "expected a disk hit after gc");
  Alcotest.(check bool) "gc ~keep:0 deletes" true (Cert_cache.gc cache ~keep:0 >= 1);
  Alcotest.(check bool) "gone after gc" true
    (Cert_cache.find cache ~fingerprint:cert.Cert.fingerprint = None);
  remove_tree dir

let test_garbage_disk_file_rejected () =
  let dir = fresh_dir "garbage" in
  let cache = Cert_cache.create ~dir () in
  let fp = 0x1234_5678_9abcL in
  let path =
    match Cert_cache.path_of cache fp with
    | Some p -> p
    | None -> Alcotest.fail "disk-backed cache has no path"
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "DWVCnot a certificate at all");
  Alcotest.(check bool) "garbage file is a reject, not a crash" true
    (Cert_cache.find cache ~fingerprint:fp = None);
  Alcotest.(check int) "reject counted" 1 (Cert_cache.stats cache).Cert_cache.rejects;
  remove_tree dir

(* A certificate renamed to another fingerprint's address (a cache
   directory shared across configs, a botched sync, ...) must be
   rejected as stale, never replayed. *)
let test_misfiled_cert_is_rejected () =
  let dir, cache, cert, _raw = emitted_cert "misfiled" in
  let other = Int64.lognot cert.Cert.fingerprint in
  let src = Option.get (Cert_cache.path_of cache cert.Cert.fingerprint) in
  let dst = Option.get (Cert_cache.path_of cache other) in
  Sys.rename src dst;
  Cert_cache.reset_stats cache;
  Alcotest.(check bool) "misfiled cert refused" true
    (Cert_cache.find cache ~fingerprint:other = None);
  Alcotest.(check int) "reject counted" 1 (Cert_cache.stats cache).Cert_cache.rejects;
  remove_tree dir

(* An injected corruption is rejected on the lookup it targets; the
   reject drops only the memory copy, so the clean bytes on disk serve
   the next lookup. *)
let test_cache_fault_keeps_disk_copy () =
  let dir, cache, cert, _raw = emitted_cert "fault" in
  let fingerprint = cert.Cert.fingerprint in
  Cert_cache.reset_stats cache;
  Fault.with_faults ~seed:5 [ (0, Fault.Cert_corrupt) ] (fun () ->
      ignore (Fault.begin_call () : Fault.kind option);
      Fun.protect ~finally:Fault.end_call (fun () ->
          Alcotest.(check bool) "corrupted bytes rejected" true
            (Cert_cache.find cache ~fingerprint = None)));
  Alcotest.(check int) "reject counted" 1 (Cert_cache.stats cache).Cert_cache.rejects;
  (match Cert_cache.find cache ~fingerprint with
  | Some c -> Alcotest.(check bool) "clean bytes survive the fault" true (Cert.equal c cert)
  | None -> Alcotest.fail "expected a clean disk hit");
  remove_tree dir

(* ---------------- cache-hit equality across domain counts ---------------- *)

let acc_cfg =
  { Learner.default_config with Learner.max_iters = 4; alpha = 0.2; beta = 0.2; seed = 7 }

let learn_with ?cache ~domains () =
  Pool.with_pool ~oversubscribe:true ~domains (fun pool ->
      Learner.learn ~pool acc_cfg ~metric:Metrics.Geometric ~spec:A.spec
        ~verify:(fun c -> (A.verify_robust ?cache c).Verifier.pipe)
        ~init:A.initial_controller)

let check_same_result label (a : Learner.result) (b : Learner.result) =
  Alcotest.(check (array (float 0.0)))
    (label ^ ": identical theta")
    (Controller.params a.Learner.controller)
    (Controller.params b.Learner.controller);
  Alcotest.(check int) (label ^ ": same iterations") a.Learner.iterations
    b.Learner.iterations;
  Alcotest.(check int)
    (label ^ ": same verifier calls")
    a.Learner.verifier_calls b.Learner.verifier_calls;
  Alcotest.(check bool) (label ^ ": same verdict") true
    (a.Learner.verdict = b.Learner.verdict)

let test_cache_hit_equality_across_domains () =
  let baseline = learn_with ~domains:1 () in
  let dir = fresh_dir "domains" in
  let cache = Cert_cache.create ~dir () in
  ignore (learn_with ~cache ~domains:1 () : Learner.result);
  Cert_cache.reset_stats cache;
  let warm1 = learn_with ~cache ~domains:1 () in
  let s1 = Cert_cache.stats cache in
  Cert_cache.reset_stats cache;
  let warm4 = learn_with ~cache ~domains:4 () in
  let s4 = Cert_cache.stats cache in
  check_same_result "warm domains=1 vs cache-disabled" baseline warm1;
  check_same_result "warm domains=4 vs cache-disabled" baseline warm4;
  Alcotest.(check bool) "domains=1: warm run hits" true (s1.Cert_cache.hits > 0);
  Alcotest.(check int) "domains=1: zero misses" 0 s1.Cert_cache.misses;
  Alcotest.(check int) "domains=1: zero rejects" 0 s1.Cert_cache.rejects;
  Alcotest.(check int) "domains=4: zero misses" 0 s4.Cert_cache.misses;
  Alcotest.(check int) "domains=4: zero rejects" 0 s4.Cert_cache.rejects;
  Alcotest.(check int) "same hit count at 1 and 4 domains" s1.Cert_cache.hits
    s4.Cert_cache.hits;
  remove_tree dir

(* ---------------- suite ---------------- *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_mutation_never_valid; prop_ival_containment ]

let suite =
  props
  @ [
      Alcotest.test_case "affine range contains corners" `Quick
        test_affine_range_contains_corners;
      Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
      Alcotest.test_case "emitted cert full-validates" `Quick
        test_emitted_cert_full_validates;
      Alcotest.test_case "wrong expected address is stale" `Quick
        test_wrong_expected_address_is_stale;
      Alcotest.test_case "forged claim is tampered" `Quick test_forged_claim_is_tampered;
      Alcotest.test_case "cache store/find/gc" `Quick test_cache_store_find_gc;
      Alcotest.test_case "garbage disk file rejected" `Quick
        test_garbage_disk_file_rejected;
      Alcotest.test_case "misfiled cert rejected" `Quick test_misfiled_cert_is_rejected;
      Alcotest.test_case "cache fault keeps the disk copy" `Quick
        test_cache_fault_keeps_disk_copy;
      Alcotest.test_case "cache-hit equality at domains 1/4" `Quick
        test_cache_hit_equality_across_domains;
    ]

let () = Alcotest.run "dwv-certs" [ ("certs", suite) ]
