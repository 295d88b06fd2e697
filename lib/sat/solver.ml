(* MiniSat-style CDCL. Variable state lives in parallel arrays indexed by
   variable; watch lists are indexed by literal. Literals are handled as
   their [Lit.to_index] ints throughout.

   Every clause lives in one int arena and is named by the offset of its
   header word, which packs [len lsl 2 lor learnt lsl 1 lor deleted]. Its
   [len] literals follow the header, the two watched ones first; a learnt
   clause's activity follows its literals as the bits of the float (it is
   never negative, so the sign bit that an OCaml int lacks is always 0).
   Deleted clauses stay in place until they hold half the arena, then
   [compact] copies the live ones down in id order. *)

type result = Sat | Unsat | Unknown

(* DRUP proof events. The sink sees the exact original clauses (before
   level-0 simplification), every learnt clause, every deletion, and one
   [P_empty] per Unsat answer carrying the assumptions it was derived
   under. With no sink attached the only cost per event site is a single
   mutable-field load and branch. *)
type proof_step =
  | P_input of Lit.t list
  | P_learn of Lit.t list
  | P_delete of Lit.t list
  | P_empty of Lit.t list

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
}

type t = {
  mutable nvars : int;
  mutable assigns : int array;          (* 0 unknown, 1 true, -1 false *)
  mutable level : int array;
  mutable reason : int array;           (* clause id, -1 for none *)
  mutable activity : float array;
  mutable polarity : bool array;        (* saved phase *)
  mutable seen : bool array;
  mutable arena : int array;
  mutable arena_len : int;
  mutable arena_dead : int;             (* words held by deleted clauses *)
  mutable watches : int array array;
      (* indexed by literal: the count of clause ids, then the ids *)
  clauses : int Veca.t;
  learnts : int Veca.t;
  mutable buf : int array;              (* literal scratch for clause intake *)
  trail : int Veca.t;
  trail_lim : int Veca.t;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable heap : int array;
  mutable heap_len : int;
  mutable heap_index : int array;       (* var -> heap position or -1 *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable max_learnts : float;
  mutable priority : int array;
  mutable proof_sink : (proof_step -> unit) option;
  mutable stop_reason : Resil.Budget.reason option;
      (* why the last [solve] returned Unknown *)
}

(* The watch list of every literal not yet watched. *)
let no_watches = [| 0 |]

let var_decay = 1. /. 0.95
let clause_decay = 1. /. 0.999

(* Observability handles (created once at module init; recording is a
   no-op until the registry is enabled). Search counters are kept in the
   solver's own mutable fields on the hot path and pushed to the registry
   as per-solve deltas, so the disabled cost inside search is zero and
   the enabled cost is a handful of atomic adds per [solve]. Learnt-clause
   sizes are the exception: they are only visible at learn time. *)
let m_solves = Obs.Metrics.counter "sat.solves"

let m_conflicts = Obs.Metrics.counter "sat.conflicts"

let m_decisions = Obs.Metrics.counter "sat.decisions"

let m_propagations = Obs.Metrics.counter "sat.propagations"

let m_restarts = Obs.Metrics.counter "sat.restarts"

let h_learnt_len =
  Obs.Metrics.histogram "sat.learnt_clause_len"
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

let h_conflicts_per_solve =
  Obs.Metrics.histogram "sat.conflicts_per_solve"
    ~buckets:[| 0.; 1.; 4.; 16.; 64.; 256.; 1024.; 4096.; 16384.; 65536. |]

let create () =
  {
    nvars = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    activity = [||];
    polarity = [||];
    seen = [||];
    arena = [||];
    arena_len = 0;
    arena_dead = 0;
    watches = [||];
    clauses = Veca.create ();
    learnts = Veca.create ();
    buf = Array.make 16 0;
    trail = Veca.create ();
    trail_lim = Veca.create ();
    qhead = 0;
    var_inc = 1.;
    cla_inc = 1.;
    ok = true;
    heap = [||];
    heap_len = 0;
    heap_index = [||];
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    max_learnts = 3000.;
    priority = [||];
    proof_sink = None;
    stop_reason = None;
  }

let set_proof_sink s sink = s.proof_sink <- sink

let set_max_learnts s n =
  if n < 1 then invalid_arg "Solver.set_max_learnts";
  s.max_learnts <- float_of_int n

let nvars s = s.nvars

let nclauses s = Veca.length s.clauses

let okay s = s.ok

(* ---------- variable-order heap (max-heap on activity) ---------- *)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_index.(vi) <- j;
  s.heap_index.(vj) <- i

let heap_up s i =
  let i = ref i in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    s.activity.(s.heap.(!i)) > s.activity.(s.heap.(parent))
  do
    let parent = (!i - 1) / 2 in
    heap_swap s !i parent;
    i := parent
  done

let heap_down s i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
    let best = ref !i in
    if left < s.heap_len && s.activity.(s.heap.(left)) > s.activity.(s.heap.(!best))
    then best := left;
    if right < s.heap_len && s.activity.(s.heap.(right)) > s.activity.(s.heap.(!best))
    then best := right;
    if !best = !i then continue := false
    else begin
      heap_swap s !i !best;
      i := !best
    end
  done

let heap_insert s v =
  if s.heap_index.(v) < 0 then begin
    s.heap.(s.heap_len) <- v;
    s.heap_index.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_up s (s.heap_len - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap_index.(v) <- -1;
  if s.heap_len > 0 then begin
    let last = s.heap.(s.heap_len) in
    s.heap.(0) <- last;
    s.heap_index.(last) <- 0;
    heap_down s 0
  end;
  v

(* ---------- variables ---------- *)

let grow_array a n default =
  let old = Array.length a in
  if n <= old then a
  else begin
    let na = Array.make (max n (max 16 (2 * old))) default in
    Array.blit a 0 na 0 old;
    na
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns <- grow_array s.assigns s.nvars 0;
  s.level <- grow_array s.level s.nvars (-1);
  s.reason <- grow_array s.reason s.nvars (-1);
  s.activity <- grow_array s.activity s.nvars 0.;
  s.polarity <- grow_array s.polarity s.nvars false;
  s.seen <- grow_array s.seen s.nvars false;
  s.heap <- grow_array s.heap s.nvars (-1);
  s.heap_index <- grow_array s.heap_index s.nvars (-1);
  s.watches <- grow_array s.watches (2 * s.nvars) no_watches;
  s.heap_index.(v) <- -1;
  heap_insert s v;
  v

let value_var s v = s.assigns.(v)

let value_lit s l =
  let v = s.assigns.(l lsr 1) in
  if l land 1 = 0 then v else -v

let decision_level s = Veca.length s.trail_lim

(* ---------- activity ---------- *)

let var_rescale s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then var_rescale s;
  if s.heap_index.(v) >= 0 then heap_up s s.heap_index.(v)

let var_decay_activity s = s.var_inc <- s.var_inc *. var_decay

(* ---------- clause arena ---------- *)

let clause_len s c = s.arena.(c) lsr 2

let clause_activity s c =
  Int64.float_of_bits
    (Int64.logand (Int64.of_int s.arena.(c + 1 + clause_len s c)) Int64.max_int)

let set_clause_activity s c x =
  s.arena.(c + 1 + clause_len s c) <- Int64.to_int (Int64.bits_of_float x)

(* Copies the first [n] literals of [s.buf] into a fresh clause. *)
let alloc_clause s ~learnt n =
  let size = n + if learnt then 2 else 1 in
  let c = s.arena_len in
  s.arena <- grow_array s.arena (c + size) 0;
  let a = s.arena in
  a.(c) <- (n lsl 2) lor if learnt then 2 else 0;
  Array.blit s.buf 0 a (c + 1) n;
  if learnt then a.(c + 1 + n) <- 0;
  s.arena_len <- c + size;
  c

let watch s l c =
  let ws = s.watches.(l) in
  let n = ws.(0) + 1 in
  let ws =
    if n < Array.length ws then ws
    else begin
      let nw = Array.make (max 4 (2 * n)) 0 in
      Array.blit ws 0 nw 0 n;
      s.watches.(l) <- nw;
      nw
    end
  in
  ws.(n) <- c;
  ws.(0) <- n

let clause_bump s c =
  let act = clause_activity s c +. s.cla_inc in
  set_clause_activity s c act;
  if act > 1e20 then begin
    Veca.iter (fun c -> set_clause_activity s c (clause_activity s c *. 1e-20)) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let clause_decay_activity s = s.cla_inc <- s.cla_inc *. clause_decay

(* ---------- assignment trail ---------- *)

let enqueue s l reason =
  let v = l lsr 1 in
  assert (s.assigns.(v) = 0);
  s.assigns.(v) <- (if l land 1 = 0 then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Veca.push s.trail l

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Veca.get s.trail_lim lvl in
    for i = Veca.length s.trail - 1 downto bound do
      let l = Veca.get s.trail i in
      let v = l lsr 1 in
      s.assigns.(v) <- 0;
      s.polarity.(v) <- l land 1 = 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Veca.shrink s.trail bound;
    Veca.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* ---------- propagation ---------- *)

(* Returns the conflicting clause, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  let a = s.arena in
  while !conflict < 0 && s.qhead < Veca.length s.trail do
    let p = Veca.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = p lxor 1 in
    let ws = s.watches.(false_lit) in
    let n = ws.(0) + 1 in
    let i = ref 1 and j = ref 1 in
    while !i < n do
      let c = ws.(!i) in
      incr i;
      let h = a.(c) in
      if h land 1 = 0 then begin
        (* Normalise: the watched false literal sits at position 1. *)
        if a.(c + 1) = false_lit then begin
          a.(c + 1) <- a.(c + 2);
          a.(c + 2) <- false_lit
        end;
        let first = a.(c + 1) in
        if value_lit s first = 1 then begin
          ws.(!j) <- c;
          incr j
        end
        else begin
          (* Look for a replacement watch among the other literals. *)
          let stop = c + 1 + (h lsr 2) and k = ref (c + 3) in
          while !k < stop && value_lit s a.(!k) = -1 do
            incr k
          done;
          if !k < stop then begin
            a.(c + 2) <- a.(!k);
            a.(!k) <- false_lit;
            watch s a.(c + 2) c
          end
          else begin
            (* Unit or conflicting clause; keep the watch either way. *)
            ws.(!j) <- c;
            incr j;
            if value_lit s first = -1 then begin
              while !i < n do
                ws.(!j) <- ws.(!i);
                incr j;
                incr i
              done;
              s.qhead <- Veca.length s.trail;
              conflict := c
            end
            else enqueue s first c
          end
        end
      end
    done;
    (* The shared empty list is never written. *)
    if !j < n then ws.(0) <- !j - 1
  done;
  !conflict

(* ---------- clause construction ---------- *)

let check_var_exists s l =
  if Lit.var l >= s.nvars then invalid_arg "Solver.add_clause: unknown variable"

let reserve_buf s n = s.buf <- grow_array s.buf n 0

(* Copies [lits] into [s.buf] in order and returns how many there are. *)
let load_list s lits =
  let n = List.length lits in
  reserve_buf s n;
  List.iteri (fun k l -> s.buf.(k) <- Lit.to_index l) lits;
  n

(* Puts [lits] into [s.buf] sorted and without duplicates, as
   [List.sort_uniq] would, and returns how many there are. *)
let load_sorted s lits =
  List.fold_left
    (fun n l ->
      check_var_exists s l;
      reserve_buf s (n + 1);
      let b = s.buf in
      let l = Lit.to_index l in
      let i = ref n in
      while !i > 0 && b.(!i - 1) > l do
        decr i
      done;
      if !i > 0 && b.(!i - 1) = l then n
      else begin
        for k = n downto !i + 1 do
          b.(k) <- b.(k - 1)
        done;
        b.(!i) <- l;
        n + 1
      end)
    0 lits

let add_clause s lits =
  let n = load_sorted s lits in
  if s.ok then begin
    (* The proof sink records the clause exactly as given: level-0
       simplification below is sound for the solver but the checker works
       from the original CNF (simplified clauses stay RUP-derivable from
       it, so learnt lemmas check out either way). *)
    (match s.proof_sink with None -> () | Some f -> f (P_input lits));
    (* Incremental use adds clauses after a Sat answer: drop the model's
       decisions first, then simplify at level 0. *)
    cancel_until s 0;
    (* Level-0 simplification: a literal and its complement sort next to
       each other; false literals are dropped in place. *)
    let b = s.buf in
    let tautology = ref false and satisfied = ref false and alive = ref 0 in
    for i = 0 to n - 1 do
      if i > 0 && b.(i) = b.(i - 1) lxor 1 then tautology := true;
      let v = value_lit s b.(i) in
      if v = 1 then satisfied := true;
      if v <> -1 then begin
        b.(!alive) <- b.(i);
        incr alive
      end
    done;
    if not (!tautology || !satisfied) then
      match !alive with
      | 0 ->
          s.ok <- false;
          (match s.proof_sink with None -> () | Some f -> f (P_learn []))
      | 1 ->
          enqueue s b.(0) (-1);
          if propagate s >= 0 then begin
            s.ok <- false;
            match s.proof_sink with None -> () | Some f -> f (P_learn [])
          end
      | n ->
          let c = alloc_clause s ~learnt:false n in
          Veca.push s.clauses c;
          watch s b.(0) c;
          watch s b.(1) c
  end

(* ---------- conflict analysis (first UIP) ---------- *)

let analyze s confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (Veca.length s.trail - 1) in
  let btlevel = ref 0 in
  let to_clear = ref [] in
  let stop = ref false in
  while not !stop do
    let c = !confl in
    assert (c >= 0);
    if s.arena.(c) land 2 <> 0 then clause_bump s c;
    let start = if !p < 0 then 0 else 1 in
    for k = c + 1 + start to c + clause_len s c do
      let q = s.arena.(k) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        var_bump s v;
        s.seen.(v) <- true;
        to_clear := v :: !to_clear;
        if s.level.(v) >= decision_level s then incr path
        else begin
          learnt := Lit.of_index q :: !learnt;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* Walk the trail back to the next marked literal. *)
    while not s.seen.(Veca.get s.trail !idx lsr 1) do
      decr idx
    done;
    let pl = Veca.get s.trail !idx in
    decr idx;
    s.seen.(pl lsr 1) <- false;
    p := pl;
    confl := s.reason.(pl lsr 1);
    decr path;
    if !path = 0 then stop := true
  done;
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  (Lit.of_index (!p lxor 1) :: !learnt, !btlevel)

(* Stores the first [n] literals of [s.buf] as a learnt clause and
   watches the first two. *)
let add_learnt s n =
  let c = alloc_clause s ~learnt:true n in
  Veca.push s.learnts c;
  watch s s.buf.(0) c;
  watch s s.buf.(1) c;
  c

let record_learnt s lits btlevel =
  (match s.proof_sink with None -> () | Some f -> f (P_learn lits));
  if Obs.Metrics.enabled () then
    Obs.Metrics.observe h_learnt_len (float_of_int (List.length lits));
  match lits with
  | [] -> assert false
  | [ l ] ->
      cancel_until s 0;
      enqueue s (Lit.to_index l) (-1)
  | asserting :: _ ->
      cancel_until s btlevel;
      let n = load_list s lits in
      let b = s.buf in
      (* Position 1 must hold a literal from the backtrack level so the
         watch invariant survives future backtracking. *)
      let best = ref 1 in
      for k = 2 to n - 1 do
        if s.level.(b.(k) lsr 1) > s.level.(b.(!best) lsr 1) then best := k
      done;
      let tmp = b.(1) in
      b.(1) <- b.(!best);
      b.(!best) <- tmp;
      let c = add_learnt s n in
      clause_bump s c;
      enqueue s (Lit.to_index asserting) c

(* ---------- learnt-clause deletion ---------- *)

let locked s c =
  let l0 = s.arena.(c + 1) in
  s.reason.(l0 lsr 1) = c && value_lit s l0 = 1

(* Copies the live clauses into a fresh arena in id order and renames
   every id held in watches, reasons, [clauses] and [learnts]. Watch lists
   keep the relative order of their live entries, so the search is the
   same as without compaction. *)
let compact s =
  let a = s.arena and live = s.arena_len - s.arena_dead in
  let na = Array.make (max 1024 (2 * live)) 0 in
  (* [a.(c)] becomes the new id of clause [c], or -1 once deleted. *)
  let c = ref 0 and dst = ref 0 in
  while !c < s.arena_len do
    let h = a.(!c) in
    let size = (h lsr 2) + if h land 2 <> 0 then 2 else 1 in
    if h land 1 = 1 then a.(!c) <- -1
    else begin
      Array.blit a !c na !dst size;
      a.(!c) <- !dst;
      dst := !dst + size
    end;
    c := !c + size
  done;
  Array.iter
    (fun ws ->
      let j = ref 0 in
      for i = 1 to ws.(0) do
        let c = a.(ws.(i)) in
        if c >= 0 then begin
          incr j;
          ws.(!j) <- c
        end
      done;
      if !j < ws.(0) then ws.(0) <- !j)
    s.watches;
  for v = 0 to s.nvars - 1 do
    if s.reason.(v) >= 0 then s.reason.(v) <- a.(s.reason.(v))
  done;
  let rename ids =
    for k = 0 to Veca.length ids - 1 do
      Veca.set ids k a.(Veca.get ids k)
    done
  in
  rename s.clauses;
  rename s.learnts;
  s.arena <- na;
  s.arena_len <- live;
  s.arena_dead <- 0

let reduce_db s =
  Veca.sort (fun a b -> Float.compare (clause_activity s a) (clause_activity s b)) s.learnts;
  let n = Veca.length s.learnts in
  let limit = n / 2 in
  let kept = ref 0 in
  for k = 0 to n - 1 do
    let c = Veca.get s.learnts k in
    if k < limit && clause_len s c > 2 && not (locked s c) then begin
      (match s.proof_sink with
      | None -> ()
      | Some f -> f (P_delete (List.init (clause_len s c) (fun k -> Lit.of_index s.arena.(c + 1 + k)))));
      s.arena.(c) <- s.arena.(c) lor 1;
      s.arena_dead <- s.arena_dead + clause_len s c + 2
    end
    else begin
      Veca.set s.learnts !kept c;
      incr kept
    end
  done;
  Veca.shrink s.learnts !kept;
  if 2 * s.arena_dead > s.arena_len then compact s

(* ---------- search ---------- *)

let set_priority s vars =
  List.iter
    (fun v -> if v < 0 || v >= s.nvars then invalid_arg "Solver.set_priority")
    vars;
  s.priority <- Array.of_list vars

let pick_branch_var s =
  (* Priority variables first (circuit inputs), then VSIDS. *)
  let n = Array.length s.priority in
  let rec from_priority i =
    if i >= n then -1
    else
      let v = s.priority.(i) in
      if s.assigns.(v) = 0 then v else from_priority (i + 1)
  in
  let v = from_priority 0 in
  if v >= 0 then v
  else
    let rec loop () =
      if s.heap_len = 0 then -1
      else
        let v = heap_pop s in
        if s.assigns.(v) = 0 then v else loop ()
    in
    loop ()

let luby y x =
  (* Finite-subsequence trick from MiniSat: find the subsequence containing
     index x, then recurse into it iteratively. *)
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

let search s ~assumptions ~conflict_budget ~budget =
  let n_assumptions = List.length assumptions in
  let assumption_arr = Array.of_list (List.map Lit.to_index assumptions) in
  let budget_left = ref conflict_budget in
  let result = ref None in
  while !result = None do
    match propagate s with
    | confl when confl >= 0 ->
        s.n_conflicts <- s.n_conflicts + 1;
        (match !budget_left with
        | Some b -> budget_left := Some (b - 1)
        | None -> ());
        (* Cooperative budget poll every 64 conflicts: deadline, memory
           watermark and the cancellation token (the per-query conflict
           cap is metered by [budget_left] above). *)
        (match budget with
        | Some b when s.n_conflicts land 63 = 0 -> (
            match Resil.Budget.check b with
            | Some r ->
                s.stop_reason <- Some r;
                result := Some Unknown
            | None -> ())
        | Some _ | None -> ());
        if !result <> None then ()
        else if decision_level s = 0 then begin
          s.ok <- false;
          (* A conflict with no decisions refutes the clause set itself. *)
          (match s.proof_sink with None -> () | Some f -> f (P_learn []));
          result := Some Unsat
        end
        else if decision_level s <= n_assumptions then
          (* The conflict depends on the assumptions only. *)
          result := Some Unsat
        else begin
          let lits, btlevel = analyze s confl in
          record_learnt s lits btlevel;
          var_decay_activity s;
          clause_decay_activity s
        end
    | _ -> (
        match !budget_left with
        | Some b when b <= 0 -> result := Some Unknown
        | Some _ | None ->
            if
              float_of_int (Veca.length s.learnts) >= s.max_learnts
              && decision_level s > n_assumptions
            then begin
              reduce_db s;
              s.max_learnts <- s.max_learnts *. 1.3
            end;
            let lvl = decision_level s in
            if lvl < n_assumptions then begin
              (* Re-establish the next assumption as a decision. *)
              let a = assumption_arr.(lvl) in
              match value_lit s a with
              | 1 -> Veca.push s.trail_lim (Veca.length s.trail)
              | -1 -> result := Some Unsat
              | _ ->
                  Veca.push s.trail_lim (Veca.length s.trail);
                  enqueue s a (-1)
            end
            else begin
              let v = pick_branch_var s in
              if v < 0 then result := Some Sat
              else begin
                s.n_decisions <- s.n_decisions + 1;
                Veca.push s.trail_lim (Veca.length s.trail);
                enqueue s (Lit.to_index (Lit.make v s.polarity.(v))) (-1)
              end
            end)
  done;
  match !result with Some r -> r | None -> assert false

let solve ?(assumptions = []) ?max_conflicts ?budget s =
  let obs = Obs.Metrics.enabled () in
  s.stop_reason <- None;
  (* The budget's conflict cap composes with [max_conflicts]: the
     tighter of the two wins. *)
  let max_conflicts =
    match Option.bind budget Resil.Budget.conflicts with
    | None -> max_conflicts
    | Some c -> (
        match max_conflicts with
        | None -> Some c
        | Some mc -> Some (min c mc))
  in
  let c0 = s.n_conflicts
  and d0 = s.n_decisions
  and p0 = s.n_propagations
  and r0 = s.n_restarts in
  let result =
    if not s.ok then Unsat
    else begin
      cancel_until s 0;
      List.iter (check_var_exists s) assumptions;
      match
        (match Option.map Resil.Budget.check budget with
        | Some (Some r) ->
            (* Already out of budget at entry (deadline passed, token
               cancelled): answer Unknown without touching the trail. *)
            s.stop_reason <- Some r;
            Unknown
        | Some None | None -> (
            Resil.Faultpoint.guard "sat.oom" Out_of_memory;
            match propagate s with
            | confl when confl >= 0 ->
                s.ok <- false;
                (match s.proof_sink with None -> () | Some f -> f (P_learn []));
                Unsat
            | _ ->
                let conflict_cap = Option.map (fun b -> max 1 b) max_conflicts in
                let rec restart_loop i =
                  (* Restart cadence only applies to unbounded solving; a
                     conflict budget gives a single uninterrupted search. *)
                  let per_restart =
                    match conflict_cap with
                    | Some b -> Some b
                    | None -> Some (int_of_float (luby 1. i *. 256.))
                  in
                  let r = search s ~assumptions ~conflict_budget:per_restart ~budget in
                  match (r, conflict_cap) with
                  | Unknown, None when s.stop_reason = None ->
                      s.n_restarts <- s.n_restarts + 1;
                      cancel_until s 0;
                      restart_loop (i + 1)
                  | (Sat | Unsat | Unknown), _ -> r
                in
                let result = restart_loop 0 in
                (match result with
                | Sat -> ()
                | Unsat | Unknown -> cancel_until s 0);
                result))
      with
      | result -> result
      | exception Out_of_memory ->
          (* Allocation failure mid-search (or the injected "sat.oom"
             fault): back out to level 0 so the session stays reusable
             and report a typed Unknown. *)
          cancel_until s 0;
          s.stop_reason <- Some Resil.Budget.Memory;
          Unknown
    end
  in
  (match result with
  | Unknown ->
      if s.stop_reason = None then s.stop_reason <- Some Resil.Budget.Conflicts;
      Option.iter
        (fun b -> Resil.Budget.record b (Option.get s.stop_reason))
        budget
  | Sat | Unsat -> ());
  (* Every Unsat answer closes its proof slice: ⊥ is reachable by unit
     propagation from the logged CNF, the logged lemmas and exactly these
     assumptions. *)
  (match result with
  | Unsat -> (
      match s.proof_sink with None -> () | Some f -> f (P_empty assumptions))
  | Sat | Unknown -> ());
  if obs then begin
    Obs.Metrics.incr m_solves;
    Obs.Metrics.add m_conflicts (s.n_conflicts - c0);
    Obs.Metrics.add m_decisions (s.n_decisions - d0);
    Obs.Metrics.add m_propagations (s.n_propagations - p0);
    Obs.Metrics.add m_restarts (s.n_restarts - r0);
    Obs.Metrics.observe h_conflicts_per_solve (float_of_int (s.n_conflicts - c0))
  end;
  result

let value s l =
  if Lit.var l >= s.nvars then invalid_arg "Solver.value: unknown variable";
  value_lit s (Lit.to_index l) = 1

let model s = Array.init s.nvars (fun v -> value_var s v = 1)

let last_interrupt s = s.stop_reason

let stats s =
  {
    conflicts = s.n_conflicts;
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    restarts = s.n_restarts;
    learnt_clauses = Veca.length s.learnts;
  }
