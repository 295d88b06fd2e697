(** Resource budgets and cooperative cancellation.

    A {!t} bundles the three resource caps a long-running analysis must
    respect — a wall-clock deadline, a conflict cap for the SAT solver,
    and a major-heap watermark — plus a thread-safe cancellation
    {!token}. Budgets are {e cooperative}: code on a hot loop calls
    {!check} every few hundred iterations and unwinds with a typed
    reason when some cap has been hit; nothing is ever interrupted
    asynchronously, so solver and enumeration state stays consistent and
    sessions remain reusable after an exhausted query.

    A budget may be shared by several workers (all fields are immutable
    or atomic); the first recorded reason wins and is what {!why}
    reports. *)

type reason =
  | Deadline    (** wall-clock deadline passed *)
  | Conflicts   (** SAT conflict cap exhausted *)
  | Memory      (** major-heap watermark exceeded (or solver OOM) *)
  | Cancelled   (** cancellation token fired *)
  | Incomplete  (** the procedure cannot decide by construction
                    (e.g. pure interval analysis) — not a resource cap *)

val reason_to_string : reason -> string
(** ["deadline"], ["conflicts"], ["memory"], ["cancelled"],
    ["incomplete"] — the CLI's exit-2 reason vocabulary. *)

val retryable : reason -> bool
(** Whether escalation (retry with a bigger budget / stronger backend)
    can help: true for [Deadline]/[Conflicts]/[Memory], false for
    [Cancelled] (the user asked to stop). [Incomplete] is retryable only
    by switching backend, which is the escalation policy's decision, so
    it reports false here. *)

(** {1 Cancellation tokens} *)

type token

val token : unit -> token
(** Fresh, un-fired token. *)

val cancel : token -> unit
(** Fire the token (idempotent, safe from any domain or signal
    handler). *)

val cancelled : token -> bool
(** Whether this token — or any ancestor it is {!link}ed to — has
    fired. *)

val link : token -> token
(** A child token that also reads as cancelled once the parent fires.
    Cancelling the child does {e not} fire the parent: one daemon query
    can be stopped without poisoning the daemon's shutdown token, while
    firing the shutdown token still stops every query linked to it. *)

(** {1 Budgets} *)

type t

val create :
  ?timeout_s:float -> ?conflicts:int -> ?max_mem_mb:int -> ?token:token ->
  unit -> t
(** A budget whose deadline (if any) starts now, measured on
    {!Obs.Clock}. [conflicts] caps SAT conflicts {e per query}, not
    cumulatively. [max_mem_mb] is an OCaml major-heap watermark read via
    [Gc.quick_stat] — approximate, checked at the same cadence as the
    deadline. Omitted caps are unlimited. *)

val unlimited : unit -> t
(** No caps, fresh token; {!check} only fires if the token is
    cancelled. *)

val conflicts : t -> int option
(** The per-query conflict cap, for callers that meter conflicts
    themselves (the SAT solver). *)

val timeout_s : t -> float option

val cancellation : t -> token
(** The budget's token — cancel it to stop every worker sharing the
    budget. *)

val check : t -> reason option
(** [Some r] once some cap is exhausted (sticky: subsequent calls keep
    returning a reason), [None] while inside budget. Cheap enough for a
    per-64-conflicts or per-box cadence: one atomic load plus a clock
    read. Records the first reason (see {!why}) and bumps the
    ["resil.exhausted.<reason>"] observability counter on the first
    firing. *)

val record : t -> reason -> unit
(** Record an exhaustion reason discovered outside {!check} (e.g. the
    solver's own conflict meter, or a caught [Out_of_memory]). First
    reason wins. *)

val why : t -> reason option
(** The first recorded exhaustion reason, if any. *)

val exhausted : t -> bool

val scale : by:int -> t -> t
(** A fresh budget for a retry: timeout and conflict cap multiplied by
    [by] (deadline restarted from now), same memory watermark, {e same}
    cancellation token (cancelling the original still stops retries),
    cleared reason. *)

(** {1 Stopping an analysis} *)

exception Stopped of reason
(** An analysis was stopped before it could decide: its budget ran out,
    its token was cancelled, or the solver ran out of memory (which it
    reports as [Memory] even without a budget). Every budget-aware
    analysis of the [fannet] library raises this one exception; none
    returns a partial answer. *)

val poll : t option -> unit
(** Raise [Stopped r] when {!check} reports [Some r]; no-op without a
    budget. *)

val catch : (unit -> 'a) -> ('a, reason) result
(** [catch f] is [Ok (f ())], or [Error r] when [f] raises
    [Stopped r] — the typed-value form a wire answer or a retry loop
    carries. *)

val parallel_mapi :
  ?jobs:int -> ?budget:t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** {!Util.Parallel.mapi} for an analysis under an optional budget. A
    worker whose item raises [Stopped r] records [r] (first reason
    wins) and the whole batch drains through
    {!Util.Parallel.map_until}, which also polls [budget] before every
    item. After the batch, on the calling domain, [Stopped] is raised
    with the recorded reason, else the budget's own reason, else
    [Cancelled]. Without a stop the result equals [Array.mapi f arr]
    at every [jobs]. Each item also passes the ["worker.raise"] fault
    site. *)

val parallel_filter_mapi :
  ?jobs:int -> ?budget:t -> (int -> 'a -> 'b option) -> 'a array -> 'b list
(** {!parallel_mapi} for {!Util.Parallel.filter_mapi}: [Some]-results in
    input order, or [Stopped] as above. *)
