(* Unit tests of the benchmark's own machinery: span self time, tail
   percentile choice, and the metric catalog against BENCHMARK.json. *)

module Trace = Perfbench.Trace
module Summary = Perfbench.Summary
module Catalog = Perfbench.Catalog

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let span id ~parent start stop = { Trace.id; name = "s"; parent; task = 0; start; stop }
let close a b = Float.abs (a -. b) < 1e-12

(* Two children that ran in parallel on two domains overlap on [2, 3]:
   the parent's self time subtracts their union (3 s), not their sum (4 s). *)
let test_self_time_overlap () =
  let parent = span 1 ~parent:0 0.0 10.0 in
  let a = span 2 ~parent:1 1.0 3.0 and b = span 3 ~parent:1 2.0 4.0 in
  check "overlapping children" (close (Trace.self_time ~children:[ a; b ] parent) 7.0);
  let c = span 4 ~parent:1 6.0 7.0 in
  check "disjoint children" (close (Trace.self_time ~children:[ a; b; c ] parent) 6.0);
  let d = span 5 ~parent:1 9.0 12.0 in
  check "child clipped to parent" (close (Trace.self_time ~children:[ d ] parent) 9.0);
  check "nested children" (close (Trace.union_length [ (0.0, 5.0); (1.0, 2.0) ]) 5.0)

let test_recorder () =
  let tr = Trace.create () in
  (* children recorded from two domains at once, as pool workers do *)
  Trace.with_span (Some tr) ~name:"outer" ~parent:Trace.root ~task:7 (fun id ->
      let child () = Trace.with_span (Some tr) ~name:"inner" ~parent:id ~task:7 ignore in
      let d = Domain.spawn child in
      child ();
      Domain.join d);
  let spans = Trace.spans tr in
  check "recorded spans" (List.length spans = 3);
  let outer = List.find (fun s -> s.Trace.name = "outer") spans in
  check "children linked" (List.length (Trace.children_of spans outer) = 2);
  check "no recording without a recorder"
    (Trace.with_span None ~name:"x" ~parent:Trace.root ~task:0 (fun id -> id) = Trace.root)

let test_tail_percentile () =
  check "p99 with 1000 samples" (Summary.tail_tenths 1000 = Some 990);
  check "p95 with 999 samples" (Summary.tail_tenths 999 = Some 950);
  check "p90 with exactly 100 samples" (Summary.tail_tenths 100 = Some 900);
  check "p75 with 99 samples" (Summary.tail_tenths 99 = Some 750);
  check "p99.9 with 10000 samples" (Summary.tail_tenths 10000 = Some 999);
  check "p50 with 20 samples" (Summary.tail_tenths 20 = Some 500);
  check "none with 19 samples" (Summary.tail_tenths 19 = None);
  let s = Summary.of_samples (Array.init 100 (fun i -> float_of_int (i + 1))) in
  check "median" (close s.Summary.median 50.5);
  check "tail value" (match s.Summary.tail with Some (900, v) -> close v 90.1 | _ -> false);
  check "sample count" (s.Summary.n = 100)

let test_catalog () =
  check "catalog has no problems" (Catalog.problems () = []);
  check "valid name" (Catalog.valid_name "verifier.call_p50_ms");
  check "name with space" (not (Catalog.valid_name "bad name"));
  check "name starting with a dot" (not (Catalog.valid_name ".x"));
  check "empty name" (not (Catalog.valid_name ""));
  check "name of 65 letters" (not (Catalog.valid_name (String.make 65 'a')));
  check "end-to-end limit" (List.length Catalog.end_to_end <= Catalog.max_end_to_end);
  check "per-layer limit" (List.length Catalog.per_layer <= Catalog.max_per_layer)

(* Every catalog metric appears in BENCHMARK.json with its unit and
   direction, and nothing else is listed there. *)
let test_benchmark_json () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let squeeze s = String.concat "" (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' s))) in
  let text = squeeze text in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  let entry name unit_ better =
    Printf.sprintf {|{"name":"%s","unit":"%s","better":"%s"|} name unit_
      (Catalog.better_to_string better)
  in
  List.iter
    (fun (m : Catalog.end_to_end) ->
      check ("BENCHMARK.json lists " ^ m.name)
        (contains (entry m.name m.unit_ m.better ^ Printf.sprintf {|,"bound":%g}|} m.bound)))
    Catalog.end_to_end;
  List.iter
    (fun (m : Catalog.per_layer) ->
      check ("BENCHMARK.json lists " ^ m.lname) (contains (entry m.lname m.lunit m.lbetter ^ "}")))
    Catalog.per_layer;
  let count sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length text then acc
      else go (i + 1) (if String.sub text i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  check "BENCHMARK.json has no other metrics"
    (count {|"better":|} = List.length Catalog.end_to_end + List.length Catalog.per_layer)

let () =
  test_self_time_overlap ();
  test_recorder ();
  test_tail_percentile ();
  test_catalog ();
  test_benchmark_json ();
  if !failures > 0 then exit 1 else print_endline "perfbench tests: ok"
