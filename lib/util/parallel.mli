(** Work-stealing domain pool for per-sample verification loops.

    Every combinator seeds one range of indices per worker (the calling
    domain is worker 0) and lets idle workers steal the upper half of a
    busy worker's remaining range, so a slow item — one hard solver
    query — no longer stalls a whole static chunk. Each item's result is
    written back at its original index and the output is reassembled in
    input order, so results are deterministic and independent of [jobs]
    and of the steal schedule. With [jobs = 1] no domain is spawned and
    the sequential code path runs — results are bit-identical to the
    plain [Array] combinators. Every combinator runs on the one batch
    engine, the only place the module spawns domains.

    Workers must not share mutable state through [f]; per-worker caches
    keyed by {!Domain.DLS} (e.g. warm solver sessions) are fine.

    [jobs] resolution order: the explicit [?jobs] argument, then the
    process-wide override ({!set_default_jobs}, the CLI's [--jobs]), then
    the [FANNET_JOBS] environment variable, then
    [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** The worker count used when [?jobs] is omitted (always >= 1). *)

val set_default_jobs : int option -> unit
(** Process-wide override ([None] restores environment/hardware
    resolution). Values below 1 are clamped to 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Same result as [Array.map] for a pure [f], in input order. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

val filter_map : ?jobs:int -> ('a -> 'b option) -> 'a array -> 'b list
(** [Some]-results in input order. *)

val filter_mapi : ?jobs:int -> (int -> 'a -> 'b option) -> 'a array -> 'b list

val exists : ?jobs:int -> ('a -> bool) -> 'a array -> bool
(** Workers poll a shared flag and stop early once any element satisfies
    the predicate. *)

(** {1 Cooperative early stop}

    The [_until] variants poll [stop] (which must be thread-safe — an
    atomic flag or a {e budget} check) before every element. Once any
    worker observes [stop] the whole batch drains, the call returns
    [Error ()] and all per-element results are discarded, so [Ok]
    results remain deterministic and independent of [jobs]. Abandonment
    is a sentinel, not an exception: a genuine worker exception still
    propagates (after all domains are joined) and is never masked by a
    concurrent stop. *)

val map_until :
  ?jobs:int -> stop:(unit -> bool) -> (int -> 'a -> 'b) -> 'a array ->
  ('b array, unit) result

val filter_mapi_until :
  ?jobs:int -> stop:(unit -> bool) -> (int -> 'a -> 'b option) -> 'a array ->
  ('b list, unit) result
(** [Some]-results in input order when no worker stopped. *)

(** {1 Failure semantics}

    A raising item does not abort the batch: its exception is recorded,
    every other element still runs to completion, every spawned domain
    is joined, and only then is the exception re-raised — a failing
    parallel call never leaks running domains. With several failing
    items the exception of the {e lowest-indexed} failing item wins,
    which makes the propagated exception deterministic and independent
    of [jobs] (under the old static chunking the winner was the
    lowest-numbered failing chunk; per-item resolution refines that). *)

(** {1 Instrumentation}

    An optional probe observes per-worker effort. [None] (the default)
    is the zero-overhead path: a single atomic load per parallel batch.
    The observability layer ([Obs.Report.enable]) installs a probe backed
    by the monotonic clock; this module deliberately has no dependency on
    it. *)

type worker_stat = {
  busy_s : float;  (** wall time spent inside [f], summed over the items
                       this worker actually ran (steal-adjusted) *)
  items : int;     (** items this worker ran *)
  steals : int;    (** ranges this worker stole from a victim *)
}

type probe = {
  now_s : unit -> float;  (** timestamp source (seconds, monotonic) *)
  record : stats:worker_stat array -> unit;
      (** called on the calling domain after each parallel batch, with
          one entry per worker in worker order *)
}

val set_probe : probe option -> unit
