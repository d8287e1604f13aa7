(** Content-keyed disk persistence for analysis results.

    Keys are caller-computed digests of everything the cached value
    depends on (benchmark source, optimization level, config revision —
    see {!Engine}), so a stale hit is impossible by construction: any
    input edit changes the key.  With a directory attached, values are
    persisted via [Marshal] so later processes (repeated CLI
    invocations) reuse them; values are not kept in memory here — an
    engine kind keeps them in its {!Asipfb_util.Memo}.  Disk entries
    fan out into two-hex-character subdirectories keyed on the digest
    prefix ([DIR/ab/abcd….cache]), keeping corpus-scale runs (thousands
    of entries) out of a single flat directory.

    Disk entries are self-healing: each carries a magic string and a
    content digest, written atomically (temp file + rename).  An entry
    whose digest does not verify — truncation, interleaving, bit rot —
    is deleted, reported as a {!Corrupt_entry} event, and recomputed;
    [Marshal] never sees unverified bytes.  A [Sys_error] on the cache
    directory disables persistence for the rest of the run (reported as
    an {!Io_error} event) instead of crashing the pipeline.

    One cache holds one value type; the engine keeps a separate cache per
    payload kind. *)

type 'a t

type stats = {
  disk_hits : int;  (** Loaded from the cache directory. *)
  misses : int;  (** Computed fresh. *)
  stores : int;  (** Written to disk. *)
  corrupt : int;  (** Disk entries that failed verification (healed). *)
  io_errors : int;  (** [Sys_error]s that disabled persistence. *)
}

type event =
  | Corrupt_entry of { key : string; reason : string }
      (** A disk entry failed checksum/format verification; it was
          deleted and will be recomputed. *)
  | Io_error of { op : string; message : string }
      (** A [Sys_error] during [op] (["read"] or ["store"]); disk
          persistence is disabled for the rest of the run. *)

val create :
  ?dir:string ->
  ?enabled:bool ->
  ?chaos:Asipfb_supervise.Chaos.t ->
  ?on_event:(event -> unit) ->
  unit ->
  'a t
(** [enabled] defaults to [true]; a disabled cache computes every lookup
    and records nothing.  Without [dir] an enabled cache computes every
    lookup and counts it a miss.  [dir] is created on first store.  [chaos]
    mangles entry bytes on the ["cache-read"]/["cache-write"] seams (the
    chaos harness proving checksum detection); [on_event] observes
    corruption and I/O degradation. *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a
(** Disk, then compute-and-store.  [key] must be filename-safe (the
    engine uses [Digest.to_hex]).  Concurrent callers with the same
    fresh key may both compute; the value is deterministic, so either
    result is correct and one wins the rename. *)

val persistent : 'a t -> bool
(** Whether disk persistence is still active (a directory was given and
    no I/O error has disabled it). *)

val stats : 'a t -> stats
val reset_stats : 'a t -> unit
