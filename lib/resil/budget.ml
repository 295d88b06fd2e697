type reason = Deadline | Conflicts | Memory | Cancelled | Incomplete

let reason_to_string = function
  | Deadline -> "deadline"
  | Conflicts -> "conflicts"
  | Memory -> "memory"
  | Cancelled -> "cancelled"
  | Incomplete -> "incomplete"

let retryable = function
  | Deadline | Conflicts | Memory -> true
  | Cancelled | Incomplete -> false

(* A token optionally chains to a parent: firing the parent fires every
   linked child, firing a child leaves the parent (and its other
   children) untouched. Chains are short (a daemon query links once to
   the shutdown token), so the recursive read costs one extra atomic
   load per level. *)
type token = { fired : bool Atomic.t; parent : token option }

let token () = { fired = Atomic.make false; parent = None }
let link parent = { fired = Atomic.make false; parent = Some parent }
let cancel t = Atomic.set t.fired true

let rec cancelled t =
  Atomic.get t.fired
  || (match t.parent with Some p -> cancelled p | None -> false)

type t = {
  timeout_s : float option;
  deadline_ns : int64 option;  (* absolute Obs.Clock reading *)
  conflicts : int option;
  max_mem_mb : int option;
  mem_words : int option;      (* watermark in major-heap words *)
  tok : token;
  why : reason option Atomic.t;
}

(* Exhaustion counters: one per reason, created eagerly so the hot path
   never allocates. *)
let exhausted_counter =
  let c r = Obs.Metrics.counter ("resil.exhausted." ^ reason_to_string r) in
  let deadline = c Deadline
  and conflicts = c Conflicts
  and memory = c Memory
  and cancelled = c Cancelled
  and incomplete = c Incomplete in
  function
  | Deadline -> deadline
  | Conflicts -> conflicts
  | Memory -> memory
  | Cancelled -> cancelled
  | Incomplete -> incomplete

let words_of_mb mb = mb * 1024 * 1024 / (Sys.word_size / 8)

let create ?timeout_s ?conflicts ?max_mem_mb ?token:tok () =
  let tok = match tok with Some t -> t | None -> token () in
  let deadline_ns =
    Option.map
      (fun s -> Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (s *. 1e9)))
      timeout_s
  in
  {
    timeout_s;
    deadline_ns;
    conflicts;
    max_mem_mb;
    mem_words = Option.map words_of_mb max_mem_mb;
    tok;
    why = Atomic.make None;
  }

let unlimited () = create ()
let conflicts b = b.conflicts
let cancellation b = b.tok

let record b r =
  if Atomic.compare_and_set b.why None (Some r) then
    Obs.Metrics.incr (exhausted_counter r)

let why b = Atomic.get b.why
let exhausted b = why b <> None

let check b =
  match Atomic.get b.why with
  | Some _ as r -> r (* sticky: once exhausted, stay exhausted *)
  | None ->
      let r =
        if cancelled b.tok then Some Cancelled
        else
          match b.deadline_ns with
          | Some d when Obs.Clock.now_ns () > d -> Some Deadline
          | _ -> (
              match b.mem_words with
              | Some w when (Gc.quick_stat ()).Gc.heap_words > w -> Some Memory
              | _ -> None)
      in
      (match r with Some reason -> record b reason | None -> ());
      r

let scale ~by b =
  create
    ?timeout_s:(Option.map (fun s -> s *. float_of_int by) b.timeout_s)
    ?conflicts:(Option.map (fun c -> c * by) b.conflicts)
    ?max_mem_mb:b.max_mem_mb ~token:b.tok ()

exception Stopped of reason

let poll budget =
  match Option.bind budget check with Some r -> raise (Stopped r) | None -> ()

let catch f = match f () with v -> Ok v | exception Stopped r -> Error r

(* The shared stop protocol of a parallel analysis batch: a worker whose
   query stopped records the first reason and every worker then drains
   through the [_until] poll; the stop is raised once, on the calling
   domain, after the batch. The reason reported is the one a worker
   recorded, then whatever the budget itself observed, with [Cancelled]
   as the only remaining possibility (an external token was pulled
   between polls). *)
let drain budget run =
  let failed = Atomic.make None in
  let stop () =
    Atomic.get failed <> None || Option.bind budget check <> None
  in
  let guard f =
    Faultpoint.guard "worker.raise"
      (Failure "injected fault: analysis worker raised");
    match f () with
    | v -> v
    | exception Stopped r ->
        ignore (Atomic.compare_and_set failed None (Some r));
        None
  in
  match (run ~stop guard, Atomic.get failed) with
  | Ok v, None -> v
  | _, Some r -> raise (Stopped r)
  | Error (), None ->
      raise
        (Stopped
           (match Option.bind budget why with Some r -> r | None -> Cancelled))

let parallel_mapi ?jobs ?budget f arr =
  drain budget (fun ~stop guard ->
      Util.Parallel.map_until ?jobs ~stop
        (fun i x -> guard (fun () -> Some (f i x)))
        arr)
  |> Array.map Option.get

let parallel_filter_mapi ?jobs ?budget f arr =
  drain budget (fun ~stop guard ->
      Util.Parallel.filter_mapi_until ?jobs ~stop
        (fun i x -> guard (fun () -> f i x))
        arr)
