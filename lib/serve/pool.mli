(** Persistent work-stealing worker pool for the daemon.

    {!Util.Parallel} is batch-shaped: it spawns domains for one
    combinator call and joins them before returning. A daemon needs the
    opposite lifetime — worker domains that outlive any single request —
    so this module keeps [workers] resident domains fed from per-worker
    queues: a submitted job lands on one worker's queue (round-robin)
    and an idle worker steals from a busy sibling's queue before
    sleeping, the same discipline as [Util.Parallel]'s deques at query
    rather than item granularity.

    Jobs run at most one per worker at a time, so anything a job keeps
    in {!Domain.DLS} is never shared between two running jobs.

    A job that raises does not kill its worker: {!run} transports the
    exception back to the submitter; fire-and-forget {!submit} jobs must
    catch their own. *)

type t

val create : workers:int -> t
(** Spawn [workers] (>= 1, clamped) resident domains. *)

val workers : t -> int

val submit : t -> (unit -> unit) -> unit
(** Enqueue a job. Raises [Invalid_argument] after {!shutdown} began. *)

val run : t -> (unit -> 'a) -> 'a
(** Submit [f], block the calling thread until it finished on a worker,
    and return its result (re-raising its exception). The calling thread
    sleeps on a condition variable — it does not spin. *)

val steals : t -> int
(** Jobs a worker took from a sibling's queue rather than its own. *)

val shutdown : t -> unit
(** Drain: no new submissions are accepted, queued jobs still run,
    running jobs finish, then every worker domain is joined. Idempotent;
    safe to call from any thread except a pool worker. *)
