(** [fannetd] — the verification-as-a-service daemon.

    A socket server (Unix path or TCP) speaking {!Wire}-framed
    {!Protocol} messages. One lightweight thread per connection parses
    frames and answers control requests directly; query requests pass
    admission control, consult the LRU verdict cache, and on a miss run
    on the resident {!Pool} of worker domains.

    Admission control: at most [cap] queries may be queued-or-executing
    at once; excess requests are answered with a typed
    [Overloaded] reply rather than queued without bound. Every admitted
    query runs under a {!Resil.Budget} built from the request's caps,
    with its cancellation token linked to the daemon's shutdown token —
    [stop] cancels stragglers cooperatively after the drain grace.

    Cached answers are returned byte-identically: the cache stores each
    decided answer's encoded sub-document ({!Protocol.encode_answer},
    rendered once on the miss that computed it, whose own reply carries
    the same bytes), and
    a hit splices those bytes into the reply envelope with
    {!Protocol.encode_answer_reply} — so a hit's [answer] sub-document
    equals the cold one's bit for bit (test_serve asserts this for
    certificates) and costs no re-encode.

    The same socket also answers an HTTP-style scrape: a connection
    whose first bytes are ["GET "] receives the plain-text metrics
    report (daemon stats + {!Obs.Metrics.text_report}) and is closed —
    point [curl] at the TCP address and it works. The framed
    [Metrics] request returns the same stats plus the [fannet.obs/1]
    JSON snapshot.

    Always-on counters (mirrored into [serve.*] {!Obs.Metrics} when the
    registry is enabled) maintain the soak-test invariant
    [served + rejected + failed = submitted]. *)

type addr =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of string * int  (** host, port; port 0 picks a free one *)

type config = {
  addr : addr;
  workers : int;       (** worker domains (>= 1), per process when supervised *)
  cap : int;           (** admission cap on concurrent queries (>= 1) *)
  cache_cap_bytes : int;
      (** LRU verdict-cache budget in encoded-answer bytes (certificates
          dominate memory, not entry count); 0 disables caching *)
  timeout_ceiling_s : float option;
      (** clamp applied to client-requested budgets; [None] = no ceiling *)
  procs : int;
      (** supervised worker processes; 0 = in-process pool (the default).
          With [procs > 0] the compute fleet is forked ({!Supervisor}):
          this process keeps exactly one domain, queries are sharded by
          network digest, and a worker crash becomes a typed
          [server-error] reply plus a supervised restart — never a dead
          daemon *)
  store_path : string option;
      (** persistent verdict journal ([fannet-store/1], see {!Store});
          decided answers are written through, and on start the journal
          is recovered into the cache — bit-identical bytes, certificates
          re-validated by [lib/cert] — so a restart does not cost
          certified verdicts. [None] = memory only *)
}

val default_config : config
(** Unix socket ["fannetd.sock"], workers = {!Util.Parallel.default_jobs},
    cap = [4 × workers], cache 16 MiB, no timeout ceiling, in-process
    compute, no journal. *)

type t

val run : config -> t
(** Bind, listen, spawn the worker pool and the accept thread, return
    immediately. Raises [Invalid_argument] for a TCP port outside
    0..65535 or a TCP host that does not resolve, and [Unix.Unix_error]
    when the address cannot be bound. An existing Unix-socket file at
    the path is replaced. *)

val address : t -> addr
(** The bound address — for [Tcp (host, 0)] this carries the actual
    port. *)

val stats : t -> Protocol.server_stats

val stop : ?grace_s:float -> t -> unit
(** Graceful shutdown: stop accepting (and stop admitting — late
    queries get a typed [Overloaded]), wait up to [grace_s] (default 30)
    for in-flight queries to drain, then fire the shutdown cancellation
    token (linked into every query budget) and wait again, close the
    verdict journal — before any connection teardown, so a [SIGTERM]
    mid-compaction can never leave a non-recoverable tail — then shut
    the compute backend down (pool drain, or supervised children
    reaped), close every connection, and join all threads. Idempotent.
    A Unix-socket file created by [run] is removed. *)

val store_stats : t -> Store.stats option
(** Journal counters ([None] without [store_path]). *)

val supervisor_stats : t -> (int * int) option
(** [(restarts, deaths)] of the supervised fleet ([None] when
    [procs = 0]). *)

val cache_weight : t -> int
(** Resident verdict-cache weight in encoded-answer bytes. *)

val wait : t -> unit
(** Block until the daemon has fully stopped (via {!stop} or a client's
    [Shutdown] request). *)

val stopped : t -> bool
