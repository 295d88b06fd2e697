(** Thread-safe bounded LRU map, string keys, weighted entries.

    The daemon's verdict cache: [find] marks the entry most-recently
    used, [add] evicts least-recently-used entries until the total
    weight fits the budget again. All operations take the cache's mutex,
    so the structure is safe from any thread or domain; operations are
    O(1) amortised (hash table + intrusive doubly-linked recency list).

    Weights default to 1, so a caller that never passes [?weight] gets
    plain entry-count semantics. The daemon stores each answer's encoded
    bytes (the [answer] sub-document of its reply) and weighs an entry by
    their length — certificates dominate memory, not entry count — and
    serves a hit by splicing those bytes into the reply frame.

    Hit/miss/eviction counts are kept per cache (not process-wide) so
    tests and the metrics endpoint can report exact figures. *)

type 'a t

val create : cap:int -> 'a t
(** [cap] is the total weight budget (bytes for the daemon, entries for
    weightless callers). [cap <= 0] means "cache nothing": every [find]
    misses, every [add] is dropped — the configuration the serving
    tests use to bypass caching without a second code path. *)

val find : 'a t -> string -> 'a option
(** [Some v] bumps the entry to most-recently-used and counts a hit;
    [None] counts a miss. *)

val add : ?weight:int -> 'a t -> string -> 'a -> unit
(** Insert or overwrite (either way the key becomes most-recently used)
    at the given weight (default 1, clamped to >= 1), then evict from
    the least-recently-used end until the total weight fits. A value
    heavier than the whole budget is not inserted — and drops any older
    value cached under the same key, which would otherwise go stale. *)

val length : 'a t -> int
(** Resident entries (not weight). *)

val cap : 'a t -> int

val total_weight : 'a t -> int
(** Sum of resident entry weights; [<= cap] outside the lock. *)

val stats : 'a t -> int * int * int
(** [(hits, misses, evictions)] since creation. *)
