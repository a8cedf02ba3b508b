(** Crash-safe bounded certificate store (in-memory + on-disk).

    Disk writes are atomic (unique tmp file + rename), every entry
    carries the {!Cert} checksum footer, and both tiers store encoded
    bytes so every hit — memory or disk — pays the same decode + Quick
    validation before reuse. Every failure mode (IO error, decode
    failure, validation reject, injected [cert-*] fault) degrades to a
    miss or reject, never an exception: callers always fall back to a
    fresh computation. *)

type stats = {
  hits : int;
  misses : int;
  rejects : int;
  stores : int;
  io_failures : int;
}

val pp_stats : Format.formatter -> stats -> unit

type t

(** [create ?dir ?mem_cap ()]: memory-only when [dir] is omitted;
    otherwise one [<fingerprint>.dwvcert] file per entry under [dir]
    (created if missing). [mem_cap] (default 512) bounds the in-memory
    tier with FIFO eviction; the disk tier is bounded by {!gc}. *)
val create : ?dir:string -> ?mem_cap:int -> unit -> t

(** Validated lookup: decodes and Quick-checks the stored bytes against
    the caller's content address; corrupt, stale or unreadable entries
    count as rejects/misses and return [None]. Honors armed
    [cert-corrupt]/[cert-stale]/[cert-io] faults. *)
val find : t -> fingerprint:int64 -> Cert.t option

(** Encode and store (memory + atomic disk write). IO failures are
    counted, never raised. *)
val store : t -> Cert.t -> unit

(** Path a certificate for this fingerprint would live at ([None] for a
    memory-only cache). *)
val path_of : t -> int64 -> string option

(** Most recent successfully written file, if any. *)
val last_store_path : t -> string option

(** Delete all but the [keep] most recently written disk entries (and
    drop the whole memory tier); returns the number of files removed. *)
val gc : t -> keep:int -> int

val stats : t -> stats
val reset_stats : t -> unit
