(** Process-wide metrics registry: named counters, gauges and fixed-bucket
    histograms, safe to record from any domain.

    The registry is {e disabled by default}: every record operation starts
    with a single atomic-load-and-branch and does nothing else, so
    instrumented hot paths cost one predictable branch when observability
    is off (the contract test_obs asserts). Metric handles are created
    eagerly at module-initialisation time by the instrumented libraries;
    creation is cheap and independent of the enabled flag.

    Counters are sharded: each domain increments its own atomic cell
    (selected by domain id) and {!counter_value}/{!snapshot} merge the
    shards on read, so concurrent hot-path increments never contend on one
    cache line. Histogram shards are tiny mutex-protected records —
    uncontended locks in the common case, correct under domain-id
    collisions. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enable or disable recording. Values recorded while enabled are kept
    until {!reset}. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Get or create the counter registered under this name. Raises
    [Invalid_argument] if the name is registered as another metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
(** Sum over all shards (reads are atomic per shard, merged on read). *)

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
(** Last write wins. *)

val gauge_value : gauge -> float
(** [nan] until first set (and after {!reset}). *)

(** {1 Histograms} *)

type histogram

val default_buckets : float array
(** Exponential latency-style bucket upper bounds (seconds):
    1µs … ~100s. *)

val histogram : ?buckets:float array -> string -> histogram
(** Get or create. [buckets] are strictly increasing upper bounds; values
    above the last bound are counted in a dedicated overflow slot. On an
    existing name the buckets argument is ignored. NaN observations are
    counted in a dedicated slot, never in a value bucket. *)

type histogram_view = {
  buckets : float array;   (** upper bounds, as registered *)
  counts : int array;      (** per-bucket counts (same length) *)
  overflow : int;          (** observations above the last bound *)
  nan_count : int;         (** NaN observations *)
  count : int;             (** all observations, including NaN *)
  sum : float;             (** sum of non-NaN observations *)
  vmin : float;            (** min non-NaN observation; [nan] if none *)
  vmax : float;            (** max non-NaN observation; [nan] if none *)
}

val observe : histogram -> float -> unit
val histogram_view : histogram -> histogram_view
(** Merged over all shards. *)

(** {1 Registry} *)

val reset : unit -> unit
(** Zero every registered metric (handles stay valid). *)

val snapshot : unit -> Util.Json.t
(** JSON object [{"counters": {...}, "gauges": {...}, "histograms":
    {...}}], keys sorted by name — deterministic for a quiesced
    registry. Unset gauges render as [null]. *)

val text_report : unit -> string
(** Human-readable rendering of {!snapshot} (one metric per line;
    histograms show count/mean/min/max). *)
