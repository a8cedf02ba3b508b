(* Timing summaries: a median plus the highest standard percentile that
   still has at least ten samples beyond it, with the sample count. *)

(* Candidate tail percentiles in tenths of a percent, highest first. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

let percentile_name tenths =
  if tenths mod 10 = 0 then Printf.sprintf "p%d" (tenths / 10)
  else Printf.sprintf "p%d.%d" (tenths / 10) (tenths mod 10)

(* The highest percentile of [ladder] with at least ten of [n] samples
   strictly beyond it, i.e. n * (1000 - q) / 1000 >= 10 (exact integer
   arithmetic, so p90 of exactly 100 samples qualifies). *)
let tail_tenths n = List.find_opt (fun q -> n * (1000 - q) >= 10 * 1000) ladder

type t = {
  n : int;
  median : float;
  tail : (int * float) option;  (* percentile in tenths of a percent, value *)
}

let of_samples samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Summary.of_samples: no samples";
  let tail =
    Option.map
      (fun q -> (q, Dwv_util.Stats.quantile samples (float_of_int q /. 1000.0)))
      (tail_tenths n)
  in
  { n; median = Dwv_util.Stats.median samples; tail }

let to_string ~unit_ s =
  let tail =
    match s.tail with
    | Some (q, v) -> Printf.sprintf ", %s %.4g %s" (percentile_name q) v unit_
    | None -> ", no tail percentile (fewer than 20 samples)"
  in
  Printf.sprintf "median %.4g %s%s (n=%d)" s.median unit_ tail s.n
