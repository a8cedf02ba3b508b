(** Deterministic-counter trend ratchet over a committed history file.

    The bench gates snapshot {!Counters} around each workload; those
    totals are deterministic (bit-identical at any domain count), so a
    change against the last committed snapshot is a real behavioural
    shift, independent of wall clock. The history file accumulates one
    entry per (section, workload) change; the gate fails when work
    counters grow or the certificate-cache hit rate drops relative to
    the last committed entry, and a legitimate cost increase is accepted
    by committing the appended entry. *)

type entry = {
  section : string;  (** bench section, e.g. "hotpath" *)
  workload : string;  (** workload within the section, e.g. "learn" *)
  counters : (string * int) list;  (** sorted snapshot *)
}

(** Parse a history file; a missing or empty file is an empty history. *)
val load : string -> entry list

(** Most recent committed snapshot for the key, newest entry wins. *)
val last :
  entry list -> section:string -> workload:string -> (string * int) list option

(** Regression messages of [cur] against [prev]: any work counter that
    increased (more work for the same deterministic workload), a
    decreased [warm_hits] (lost warm starts), plus a decreased cache
    hit rate [hits / (hits + misses)]. Counters absent from one side
    count 0, so a counter that is no longer registered is not a
    regression. *)
val regressions : prev:(string * int) list -> (string * int) list -> string list

(** Gate helper: for each [(workload, snapshot)], compare against the
    last committed entry for [(section, workload)], append every
    changed snapshot to the file at [path], and return the prefixed
    regression messages (empty = ratchet passes). First-ever snapshots
    seed the history and cannot regress. *)
val record :
  path:string ->
  section:string ->
  (string * (string * int) list) list ->
  string list
