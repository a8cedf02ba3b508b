(* In-memory span recorder for the traced run. Verifier callbacks run on
   pool workers, so recording is domain-safe: ids come from an atomic
   counter and finished spans are pushed under a mutex. A span's parent
   is passed explicitly (closures capture it), never read from
   domain-local state, so a callback on a worker still links to the
   [Learner.learn] or [Initset.search] span that handed it out. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* [root] for top-level spans *)
  task : int;    (* design-task id shared by every span of one task *)
  start : float;
  stop : float;
}

type t = { mu : Mutex.t; mutable finished : span list; next_id : int Atomic.t }

let root = 0
let create () = { mu = Mutex.create (); finished = []; next_id = Atomic.make 1 }

(* [with_span tr ~name ~parent ~task f] runs [f id], recording a span
   around it when [tr] is [Some _]; with [None] it is [f root]. *)
let with_span tr ~name ~parent ~task f =
  match tr with
  | None -> f root
  | Some t ->
    let id = Atomic.fetch_and_add t.next_id 1 in
    let start = Dwv_util.Mono.now () in
    let finish () =
      let stop = Dwv_util.Mono.now () in
      Mutex.protect t.mu (fun () ->
          t.finished <- { id; name; parent; task; start; stop } :: t.finished)
    in
    Fun.protect ~finally:finish (fun () -> f id)

let spans t = List.rev (Mutex.protect t.mu (fun () -> t.finished))
let duration s = s.stop -. s.start

(* Total length covered by a set of intervals (overlaps counted once). *)
let union_length intervals =
  let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) intervals) in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, Float.max cb b)) rest
        else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None sorted

(* Self time: the span's duration minus the part of its interval that
   its children cover. Children that ran in parallel on several domains
   overlap, so their union is subtracted, not their sum. *)
let self_time ~children s =
  let clipped =
    List.map (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop)) children
  in
  duration s -. union_length clipped

let children_of all s = List.filter (fun c -> c.parent = s.id) all

let to_json s =
  Printf.sprintf
    {|{"id":%d,"name":"%s","parent":%d,"task":%d,"start":%.9f,"stop":%.9f}|} s.id s.name
    s.parent s.task s.start s.stop
