let override : int option Atomic.t = Atomic.make None

let set_default_jobs n = Atomic.set override (Option.map (max 1) n)

let env_jobs () =
  match Sys.getenv_opt "FANNET_JOBS" with
  | None -> None
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)

let default_jobs () =
  match Atomic.get override with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

let resolve ?jobs len =
  let j = match jobs with Some n -> max 1 n | None -> default_jobs () in
  max 1 (min j len)

(* Contiguous chunk bounds [lo, hi) covering [0, len); at most [jobs]
   chunks, sized within one element of each other. These only seed the
   per-worker ranges — stealing redistributes the tail at run time. *)
let chunk_bounds ~jobs len =
  let base = len / jobs and extra = len mod jobs in
  Array.init jobs (fun k ->
      let lo = (k * base) + min k extra in
      let hi = lo + base + if k < extra then 1 else 0 in
      (lo, hi))

type worker_stat = { busy_s : float; items : int; steals : int }

type probe = {
  now_s : unit -> float;
  record : stats:worker_stat array -> unit;
}

let probe : probe option Atomic.t = Atomic.make None

let set_probe p = Atomic.set probe p

(* ------------------------------------------------------------------ *)
(* Work-stealing batch engine.                                         *)
(*                                                                     *)
(* Every worker owns a range atom holding a [(lo, hi)] pair of indices *)
(* still to process, seeded with the contiguous chunk bounds above.    *)
(* The owner pops the front item by CASing [(lo, hi)] to [(lo+1, hi)]; *)
(* a worker whose range is empty scans the other workers and steals    *)
(* the upper half of the first non-empty range it finds, CASing the    *)
(* victim down to [(lo, mid)] and installing [(mid, hi)] as its own.   *)
(* Tuples are freshly allocated on every transition, so the CAS (which *)
(* compares physically) can never suffer ABA.                          *)
(*                                                                     *)
(* Each item's result is written at its original index, so the output  *)
(* is identical to the sequential order whatever the steal schedule —  *)
(* the jobs=1 ≡ jobs=N contract survives the dynamic split.            *)
(*                                                                     *)
(* Exceptions never short-circuit the batch: a failing item records    *)
(* [(index, exn)] (lowest index wins, resolved by CAS) and the batch   *)
(* keeps processing every other item, so by the time the exception     *)
(* re-raises every non-failing element has run to completion and every *)
(* spawned domain has been joined. The winning exception is therefore  *)
(* deterministic — it belongs to the lowest-indexed failing item, not  *)
(* to whichever domain failed first in time.                           *)
(* ------------------------------------------------------------------ *)

let run_batch ~workers ?(should_stop = fun () -> false) len f =
  let p = Atomic.get probe in
  let ranges = Array.map Atomic.make (chunk_bounds ~jobs:workers len) in
  let failure : (int * exn) option Atomic.t = Atomic.make None in
  let rec note_failure i e =
    match Atomic.get failure with
    | Some (j, _) when j <= i -> ()
    | cur ->
        if not (Atomic.compare_and_set failure cur (Some (i, e))) then
          note_failure i e
  in
  let stats = Array.make workers { busy_s = 0.; items = 0; steals = 0 } in
  let worker k =
    let busy = ref 0. and items = ref 0 and steals = ref 0 in
    let mine = ranges.(k) in
    let run_item i =
      (match p with
      | None -> ( try f i with e -> note_failure i e)
      | Some p ->
          let t0 = p.now_s () in
          (try f i with e -> note_failure i e);
          busy := !busy +. (p.now_s () -. t0));
      incr items
    in
    let rec pop_own () =
      let (lo, hi) as cur = Atomic.get mine in
      if lo >= hi then false
      else if Atomic.compare_and_set mine cur (lo + 1, hi) then begin
        run_item lo;
        true
      end
      else pop_own ()
    in
    (* Scan victims in a fixed order starting after ourselves; the first
       worker with at least one pending item loses its upper half. A CAS
       failure means the victim's range just moved — retry it before
       moving on, so a losing race never skips available work. *)
    let try_steal () =
      let rec attempt victim =
        let (lo, hi) as cur = Atomic.get victim in
        if hi - lo <= 0 then false
        else
          let mid = lo + ((hi - lo) / 2) in
          if Atomic.compare_and_set victim cur (lo, mid) then begin
            Atomic.set mine (mid, hi);
            incr steals;
            true
          end
          else attempt victim
      in
      let rec scan off =
        if off >= workers then false
        else
          let v = (k + off) mod workers in
          if attempt ranges.(v) then true else scan (off + 1)
      in
      scan 1
    in
    let rec loop () =
      if should_stop () then ()
      else if pop_own () then loop ()
      else if try_steal () then loop ()
      else ()
    in
    loop ();
    stats.(k) <- { busy_s = !busy; items = !items; steals = !steals }
  in
  let spawned =
    Array.init (workers - 1) (fun j -> Domain.spawn (fun () -> worker (j + 1)))
  in
  worker 0;
  Array.iter Domain.join spawned;
  (match p with None -> () | Some p -> p.record ~stats);
  match Atomic.get failure with Some (_, e) -> raise e | None -> ()

let extract out =
  Array.map (function Some v -> v | None -> assert false) out

let mapi ?jobs f arr =
  let len = Array.length arr in
  let workers = resolve ?jobs len in
  if workers = 1 then Array.mapi f arr
  else begin
    let out = Array.make len None in
    run_batch ~workers len (fun i -> out.(i) <- Some (f i arr.(i)));
    extract out
  end

let map ?jobs f arr = mapi ?jobs (fun _ x -> f x) arr

let filter_mapi ?jobs f arr =
  let len = Array.length arr in
  let workers = resolve ?jobs len in
  if workers = 1 then begin
    let acc = ref [] in
    for i = len - 1 downto 0 do
      match f i arr.(i) with Some y -> acc := y :: !acc | None -> ()
    done;
    !acc
  end
  else begin
    let out = Array.make len None in
    run_batch ~workers len (fun i -> out.(i) <- f i arr.(i));
    Array.fold_right
      (fun o acc -> match o with Some y -> y :: acc | None -> acc)
      out []
  end

let filter_map ?jobs f arr = filter_mapi ?jobs (fun _ x -> f x) arr

(* Until-variants: poll [stop] before each element; once any worker
   observes [stop] the whole batch drains and returns [Error ()] — a
   sentinel, not an exception, so a genuine worker exception is never
   masked by a concurrent stop (the batch re-raises it first). *)

let stop_flag stop =
  let stopped = Atomic.make false in
  let should_stop () =
    Atomic.get stopped
    ||
    if stop () then begin
      Atomic.set stopped true;
      true
    end
    else false
  in
  (stopped, should_stop)

let map_until ?jobs ~stop f arr =
  let len = Array.length arr in
  let workers = resolve ?jobs len in
  if workers = 1 then begin
    let out = ref [] in
    let i = ref 0 in
    let stopped = ref false in
    while (not !stopped) && !i < len do
      if stop () then stopped := true
      else begin
        out := f !i arr.(!i) :: !out;
        incr i
      end
    done;
    if !stopped then Error () else Ok (Array.of_list (List.rev !out))
  end
  else begin
    let stopped, should_stop = stop_flag stop in
    let out = Array.make len None in
    run_batch ~workers ~should_stop len (fun i -> out.(i) <- Some (f i arr.(i)));
    if Atomic.get stopped then Error () else Ok (extract out)
  end

let filter_mapi_until ?jobs ~stop f arr =
  let len = Array.length arr in
  let workers = resolve ?jobs len in
  if workers = 1 then begin
    let out = ref [] in
    let i = ref 0 in
    let stopped = ref false in
    while (not !stopped) && !i < len do
      if stop () then stopped := true
      else begin
        (match f !i arr.(!i) with Some y -> out := y :: !out | None -> ());
        incr i
      end
    done;
    if !stopped then Error () else Ok (List.rev !out)
  end
  else begin
    let stopped, should_stop = stop_flag stop in
    let out = Array.make len None in
    run_batch ~workers ~should_stop len (fun i -> out.(i) <- f i arr.(i));
    if Atomic.get stopped then Error ()
    else
      Ok
        (Array.fold_right
           (fun o acc -> match o with Some y -> y :: acc | None -> acc)
           out [])
  end

let exists ?jobs p arr =
  let len = Array.length arr in
  let workers = resolve ?jobs len in
  if workers = 1 then Array.exists p arr
  else begin
    let found = Atomic.make false in
    run_batch ~workers
      ~should_stop:(fun () -> Atomic.get found)
      len
      (fun i -> if p arr.(i) then Atomic.set found true);
    Atomic.get found
  end

