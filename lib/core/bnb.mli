(** Complete branch-and-bound analysis over the noise box.

    Exploits the structure the bit-blasted encoding ignores: for a fixed
    test input every first-layer pre-activation is an exact linear
    function of the noise percentages, [pre_k = C_k + sum_i a_ki * d_i].
    The engine propagates DeepPoly-style symbolic bounds through every
    layer: each node carries an affine lower and upper form over the noise
    variables, stable ReLUs stay linear so coefficients recombine and
    cancel downstream, and unstable ReLUs are relaxed one-sidedly with
    integer slopes in {0, 1} — the upper line [pre - lob] or the constant
    [upb], the lower the pre form or the constant 0, chosen by the
    triangle-area rule (linear iff [upb >= -lob]). Sign nodes are exact
    when their pre-activation interval is stable and collapse to the
    [[-1, 1]] envelope otherwise. Boxes proven robust or all-flipping are
    pruned; otherwise the widest noise dimension splits. Terminates
    because boxes shrink to single points, which are evaluated concretely
    through the exact layered forward. Every call builds its own bound
    workspace and classifies each box once, so concurrent calls from
    different domains share no state. A box on which no node is relaxed
    is exact: every margin is one linear form over it and over each of
    its sub-boxes, so the walk behind enumeration and counting
    classifies the boxes below it from those forms, without propagating
    them through the network.

    Any depth is supported; hidden layers may be ReLU, Sign (binarized
    networks) or Identity, and the output layer must be Identity. Both
    the paper's relative-percent noise and the absolute model are
    supported (the linear coefficients differ, nothing else).

    This is the workhorse complete backend for large noise ranges; the
    bit-blasted {!Backend.Smt} answers the same queries (and is compared
    against in the backend ablation) but scales poorly past small
    deltas. *)

type verdict =
  | Robust
  | Flip of Noise.vector
  | Unknown of Resil.Budget.reason
      (** only with a [?budget]: the search was stopped cooperatively
          before it could decide *)

exception Budget_exceeded
(** Raised by {!exists_flip} when [max_boxes] runs out. Verification cost
    tracks the network's structure: a trained network with real margins
    verifies in microseconds, while a network fitted to noise can make the
    bounds vacuous and the search exponential (the E14 ablation shows
    this). *)

val exists_flip :
  ?box:(int * int) array ->
  ?max_boxes:int ->
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  verdict
(** Any-depth ReLU/Sign/Identity networks with an Identity output layer,
    any number of output classes (multi-class robustness uses one margin
    per adversary class). Any witness is validated against
    {!Noise.predict}.

    [box] restricts the search to per-node noise ranges (bias node first
    when the spec enables bias noise, then the input nodes); it must be
    contained in the spec's range and defaults to the full range. The
    input-node-sensitivity analysis uses it to ask one-sided questions
    such as "is there a flip with strictly positive noise at node i?".

    [budget] is polled every 64 boxes; exhaustion or cancellation yields
    [Unknown] (never an exception), unlike the legacy [max_boxes] cap
    which still raises {!Budget_exceeded}. *)

val enumerate_flips :
  ?limit:int ->
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  Noise.vector list * [ `Complete | `Truncated | `Budget of Resil.Budget.reason ]
(** All distinct flipping vectors in the range, in deterministic order
    ([limit] defaults to 10_000). [`Budget] (only with a [?budget])
    returns the flips found so far. *)

(** {1 Resumable walks}

    Enumeration and counting run the same depth-first search on an
    explicit box stack, so its exact state is a serializable {!cursor}.
    A budget stop only happens between boxes; resuming from the returned
    cursor continues the run with nothing replayed and nothing skipped:
    an interrupted-and-resumed chain emits the vectors, or ends at the
    mass, of one uninterrupted walk. {!Extract} and {!Robustness} persist
    cursors in [fannet-ckpt/1] files. *)

type box = int array * int array
(** Per-dimension noise bounds, bias node first when it is noisy. *)

type 'a cursor = {
  pending : box list;  (** boxes still to process, top of stack first *)
  found : 'a;
      (** what the walk produced across all runs so far: the emitted
          flip count when enumerating, the {!mass} when counting *)
}

val fresh_cursor : Noise.spec -> input:int array -> 'a -> 'a cursor
(** The cursor an uninterrupted walk starts from: the full noise box,
    with the given nothing-found-yet value ([0], or {!no_mass}). *)

val box_to_json : box -> Util.Json.t
(** [{"lo":[..],"hi":[..]}]. *)

val read_box : Util.Json.Cursor.t -> box
(** The inverse of {!box_to_json}, read from the bytes. *)

val enumerate_flips_from :
  ?limit:int ->
  ?budget:Resil.Budget.t ->
  ?progress_every:int ->
  ?on_progress:(int cursor -> Noise.vector list -> unit) ->
  int cursor ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  Noise.vector list
  * [ `Complete | `Truncated | `Budget of Resil.Budget.reason ]
  * int cursor
(** Continue from a cursor. Returns only the vectors found {e this run}
    (the caller holds the prefix), the status, and the cursor to resume
    from after [`Budget]. [limit] bounds the {e total} emitted count,
    cursor included. [on_progress] is called every [progress_every]
    (default 256) processed boxes with the current cursor and this run's
    vectors so far, a consistent pair at a box boundary — the checkpoint
    hook; it must not mutate the cursor. *)

type mass = {
  flips : Util.Bigcount.t;  (** noise vectors that flip the label *)
  kept : Util.Bigcount.t;  (** noise vectors that keep it *)
}

val no_mass : mass

val count_flips_from :
  ?budget:Resil.Budget.t ->
  ?on_progress:(mass cursor -> unit) ->
  mass cursor ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  mass cursor * [ `Complete | `Budget of Resil.Budget.reason ]
(** The enumeration's walk with a counting leaf: a robust or all-flipping
    box adds its whole volume to one side of the mass, a point adds one.
    The returned cursor carries the mass so far; after [`Budget] it is
    the partial mass and the cursor to resume from, after [`Complete]
    [flips + kept] is the noise-space cardinality. With [label] set to a
    class [c], [kept] is the mass the network predicts as [c].
    [on_progress] is the checkpoint hook, called every 256 boxes. *)

val min_l1_flip :
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  (Noise.vector * int) option
(** The cheapest misclassifying noise vector by L1 norm (sum of absolute
    node noises) and its norm — the paper's "minimum noise (Δx)min"
    notion made precise. Best-first branch-and-bound: boxes are explored
    in order of their L1 lower bound, robust boxes pruned, so the first
    flip found is optimal. [None] when the range is robust. [budget]
    (unlimited when omitted) is polled every 64 boxes; raises
    {!Resil.Budget.Stopped} when the search is stopped before the
    optimum is proved. *)

val count_flips :
  ?limit:int ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  int * [ `Complete | `Truncated ]
(** The saturating [int] view of an unbudgeted {!count_flips_from} (the
    same walk, counting flips in an [int] and nothing else): the flip
    count when it is below [limit] (default [max_int]). The walk
    stops as soon as the count reaches [limit] and reports
    [(limit, `Truncated)], a lower bound — so a whole 3^64 box reports
    [(max_int, `Truncated)]. *)

(**/**)

val unsound_relaxation_for_tests : bool ref
(** Mutation hook for the differential fuzzer only: when set, the
    unstable-ReLU upper relaxation drops its [-lob] offset (the classic
    wrong-slope triangle bug), making the engine unsound in both
    directions. The fuzz oracle must catch and shrink the disagreement;
    every other caller must leave this [false]. *)
