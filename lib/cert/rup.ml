(* Independent forward DRUP checker. Deliberately shares no code with
   Sat.Solver: its own clause arena, its own two-watched-literal loop, no
   conflict analysis, no heuristics. Assignments made while loading the
   CNF, the assumptions, and accepted lemmas are persistent (they are
   unit-propagation consequences and the database only grows); assignments
   made inside a RUP check are rolled back to a trail mark.

   Layout. A literal is held as a code: [2v] for [v], [2v+1] for [-v], so
   negation is [lxor 1]. Every array is sized from the literals the
   certificate actually contains, never from its declared [n_vars]; when
   those variables are sparse they are renumbered densely first. Clause
   [c] occupies [arena.(start.(c)) .. arena.(start.(c) + len.(c) - 1)],
   its first two literals being its watches, and each literal code owns a
   growable array of the ids of the clauses watching it. The deletion
   index is only built when a proof first deletes something; the short
   proofs behind certify and count answers usually carry no deletions. *)

type step = Learn of int list | Delete of int list

type db = {
  rename : (int, int) Hashtbl.t option;  (* sparse DIMACS var -> dense var *)
  value : int array;  (* per literal code: 0 unassigned, 1 true, -1 false *)
  trail : int array;  (* literal codes made true, in order *)
  mutable trail_len : int;
  mutable qhead : int;
  arena : int array;
  mutable arena_len : int;
  start : int array;
  len : int array;
  alive : Bytes.t;
  mutable n_clauses : int;
  watches : int array array;  (* per literal code: watching clause ids *)
  n_watches : int array;
  mark : int array;  (* per literal code: stamp of the last clause loaded *)
  mutable stamp : int;
  mutable index : (int array, int list ref) Hashtbl.t option;
      (* sorted literal codes -> ids of the clauses with those literals *)
  mutable contradiction : bool;
}

exception Fail of string

let in_range n_vars l = l <> 0 && l <= n_vars && l >= -n_vars

let code db l =
  let v = abs l in
  let v = match db.rename with None -> v | Some tbl -> Hashtbl.find tbl v in
  if l > 0 then 2 * v else (2 * v) + 1

(* Make the literal with code [x] true and push it on the trail (caller
   ensures it is unassigned). *)
let assign db x =
  db.value.(x) <- 1;
  db.value.(x lxor 1) <- -1;
  db.trail.(db.trail_len) <- x;
  db.trail_len <- db.trail_len + 1

let watch db x c =
  let n = db.n_watches.(x) in
  let ws =
    let ws = db.watches.(x) in
    if n < Array.length ws then ws
    else begin
      let bigger = Array.make (max 4 (2 * n)) 0 in
      Array.blit ws 0 bigger 0 n;
      db.watches.(x) <- bigger;
      bigger
    end
  in
  ws.(n) <- c;
  db.n_watches.(x) <- n + 1

(* Unit-propagate from the queue head to fixpoint. Returns [true] on
   conflict (some clause with every literal false). Each visited watch
   array is compacted in place: kept watchers slide down to [j]. *)
let propagate db =
  let value = db.value and arena = db.arena in
  let conflict = ref false in
  while (not !conflict) && db.qhead < db.trail_len do
    let fl = db.trail.(db.qhead) lxor 1 in
    db.qhead <- db.qhead + 1;
    (* New watches are never false, so none is pushed onto [fl]'s array
       while it is being walked. *)
    let ws = db.watches.(fl) and n = db.n_watches.(fl) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = ws.(!i) in
      incr i;
      if Bytes.get db.alive c = '\001' then begin
        let s = db.start.(c) in
        if arena.(s) = fl then begin
          arena.(s) <- arena.(s + 1);
          arena.(s + 1) <- fl
        end;
        let first = arena.(s) in
        if value.(first) = 1 then begin
          ws.(!j) <- c;
          incr j
        end
        else begin
          let e = s + db.len.(c) in
          let k = ref (s + 2) in
          while !k < e && value.(arena.(!k)) = -1 do
            incr k
          done;
          if !k < e then begin
            (* Found a non-false replacement watch. *)
            let w = arena.(!k) in
            arena.(s + 1) <- w;
            arena.(!k) <- fl;
            watch db w c
          end
          else begin
            ws.(!j) <- c;
            incr j;
            if value.(first) = -1 then begin
              conflict := true;
              (* Keep every watcher, including the unvisited tail. *)
              Array.blit ws !i ws !j (n - !i);
              j := !j + (n - !i);
              i := n
            end
            else assign db first
          end
        end
      end
      (* a dead clause is dropped from the array *)
    done;
    db.n_watches.(fl) <- !j
  done;
  !conflict

let undo_to db mark =
  while db.trail_len > mark do
    db.trail_len <- db.trail_len - 1;
    let x = db.trail.(db.trail_len) in
    db.value.(x) <- 0;
    db.value.(x lxor 1) <- 0
  done;
  db.qhead <- mark

(* Write the codes of [lits] into [dst] from [pos], dropping duplicates.
   Returns the end position, or [-1] for a tautology. *)
let load db dst pos lits =
  db.stamp <- db.stamp + 1;
  let st = db.stamp in
  let rec go e = function
    | [] -> e
    | l :: rest ->
        let x = code db l in
        if db.mark.(x) = st then go e rest
        else if db.mark.(x lxor 1) = st then -1
        else begin
          db.mark.(x) <- st;
          dst.(e) <- x;
          go (e + 1) rest
        end
  in
  go pos lits

(* Deletion-index key: the clause's literal codes, sorted. *)
let sorted_sub a pos len =
  let key = Array.sub a pos len in
  Array.sort Int.compare key;
  key

let register idx db c =
  let key = sorted_sub db.arena db.start.(c) db.len.(c) in
  match Hashtbl.find_opt idx key with
  | Some cell -> cell := c :: !cell
  | None -> Hashtbl.add idx key (ref [ c ])

let index db =
  match db.index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create (2 * db.n_clauses) in
      for c = 0 to db.n_clauses - 1 do
        register idx db c
      done;
      db.index <- Some idx;
      idx

(* Add a clause to the database under the current persistent assignment:
   tautologies are inert, a falsified clause is a contradiction, a unit is
   assigned and propagated, anything wider gets two non-false watches. *)
let add_clause_db db lits =
  let s = db.arena_len in
  let e = load db db.arena s lits in
  if e = s then db.contradiction <- true
  else if e > s then begin
    let c = db.n_clauses in
    db.n_clauses <- c + 1;
    db.start.(c) <- s;
    db.len.(c) <- e - s;
    Bytes.set db.alive c '\001';
    db.arena_len <- e;
    Option.iter (fun idx -> register idx db c) db.index;
    if not db.contradiction then begin
      let arena = db.arena in
      let nf = ref s in
      (try
         for i = s to e - 1 do
           if db.value.(arena.(i)) <> -1 then begin
             let t = arena.(!nf) in
             arena.(!nf) <- arena.(i);
             arena.(i) <- t;
             incr nf;
             if !nf >= s + 2 then raise Exit
           end
         done
       with Exit -> ());
      if !nf = s then db.contradiction <- true
      else if !nf = s + 1 then begin
        if db.value.(arena.(s)) = 0 then begin
          assign db arena.(s);
          if propagate db then db.contradiction <- true
        end
        (* else arena.(s) is true: permanently satisfied, nothing to watch *)
      end
      else begin
        watch db arena.(s) c;
        watch db arena.(s + 1) c
      end
    end
  end

(* Reverse unit propagation: assert the negation of every literal of the
   candidate clause, propagate, and demand a conflict. Leaves the
   database exactly as found. *)
let rup_holds db lits =
  let mark = db.trail_len in
  let rec assume = function
    | [] -> propagate db
    | l :: rest -> (
        let x = code db l in
        match db.value.(x) with
        | 1 -> true
        | -1 -> assume rest
        | _ ->
            assign db (x lxor 1);
            assume rest)
  in
  let ok = assume lits in
  undo_to db mark;
  ok

let delete_clause db lits =
  let buf = Array.make (List.length lits) 0 in
  let e = load db buf 0 lits in
  (* tautologies and the empty clause are never stored *)
  if e > 0 then begin
    match Hashtbl.find_opt (index db) (sorted_sub buf 0 e) with
    | None -> raise (Fail "deletion of a clause never added")
    | Some cell -> (
        match List.find_opt (fun c -> Bytes.get db.alive c = '\001') !cell with
        | None -> raise (Fail "deletion of an already-deleted clause")
        | Some c ->
            let non_false = ref 0 in
            for i = db.start.(c) to db.start.(c) + db.len.(c) - 1 do
              if db.value.(db.arena.(i)) <> -1 then incr non_false
            done;
            (* A clause with at most one non-false literal may be the
               sole support of a propagated unit; solvers never delete
               such reason clauses, and skipping the deletion keeps our
               database a superset of theirs, which is sound (unit
               propagation is monotone in the clause set). *)
            if !non_false > 1 then Bytes.set db.alive c '\000')
  end

(* Size the database from the in-range literals the certificate holds
   (out-of-range ones are reported where the replay meets them).
   Variables index the arrays directly while the largest is within a
   small multiple of the literal count, which keeps memory proportional
   to the certificate; sparser certificates are renumbered densely. *)
let create ~n_vars ~cnf ~assumptions ~proof =
  let max_var = ref 0 and occurrences = ref 0 in
  let scan lits =
    List.iter
      (fun l ->
        if in_range n_vars l then begin
          incr occurrences;
          if abs l > !max_var then max_var := abs l
        end)
      lits
  in
  let n_lits = ref 0 and n_clauses = ref 0 in
  let scan_clause lits =
    scan lits;
    n_lits := !n_lits + List.length lits;
    incr n_clauses
  in
  List.iter scan_clause cnf;
  scan assumptions;
  List.iter (function Learn lits -> scan_clause lits | Delete lits -> scan lits) proof;
  let rename, n_slots =
    if !max_var <= (2 * !occurrences) + 1024 then (None, !max_var + 1)
    else begin
      let tbl = Hashtbl.create !occurrences in
      let number lits =
        List.iter
          (fun l ->
            if in_range n_vars l && not (Hashtbl.mem tbl (abs l)) then
              Hashtbl.add tbl (abs l) (Hashtbl.length tbl + 1))
          lits
      in
      List.iter number cnf;
      number assumptions;
      List.iter (function Learn lits | Delete lits -> number lits) proof;
      (Some tbl, Hashtbl.length tbl + 1)
    end
  in
  {
    rename;
    value = Array.make (2 * n_slots) 0;
    trail = Array.make n_slots 0;
    trail_len = 0;
    qhead = 0;
    arena = Array.make !n_lits 0;
    arena_len = 0;
    start = Array.make !n_clauses 0;
    len = Array.make !n_clauses 0;
    alive = Bytes.make !n_clauses '\000';
    n_clauses = 0;
    watches = Array.make (2 * n_slots) [||];
    n_watches = Array.make (2 * n_slots) 0;
    mark = Array.make (2 * n_slots) 0;
    stamp = 0;
    index = None;
    contradiction = false;
  }

let lits_to_string lits =
  "{" ^ String.concat " " (List.map string_of_int lits) ^ "}"

(* [where] names the checked clause; it is only built on failure. *)
let check_lits n_vars where lits =
  List.iter
    (fun l ->
      if not (in_range n_vars l) then
        raise (Fail (Printf.sprintf "%s: literal %d out of range" (where ()) l)))
    lits

let check_unsat ~n_vars ~cnf ~assumptions ~proof =
  if n_vars < 0 then Error "negative n_vars"
  else
    let db = create ~n_vars ~cnf ~assumptions ~proof in
    try
      List.iteri
        (fun i lits ->
          check_lits n_vars (fun () -> Printf.sprintf "input clause %d" i) lits;
          add_clause_db db lits)
        cnf;
      check_lits n_vars (fun () -> "assumptions") assumptions;
      List.iter
        (fun l ->
          if not db.contradiction then
            let x = code db l in
            match db.value.(x) with
            | 1 -> ()
            | -1 -> db.contradiction <- true
            | _ ->
                assign db x;
                if propagate db then db.contradiction <- true)
        assumptions;
      List.iteri
        (fun i step ->
          if not db.contradiction then
            (* Once the empty clause is derived every later step follows
               trivially; the verdict is already sealed. *)
            let where () = Printf.sprintf "step %d" i in
            match step with
            | Learn [] ->
                raise
                  (Fail
                     (Printf.sprintf
                        "step %d: empty clause not derivable by unit \
                         propagation"
                        i))
            | Learn lits ->
                check_lits n_vars where lits;
                if rup_holds db lits then add_clause_db db lits
                else
                  raise
                    (Fail
                       (Printf.sprintf "step %d: clause %s fails the RUP check"
                          i (lits_to_string lits)))
            | Delete lits ->
                check_lits n_vars where lits;
                (try delete_clause db lits
                 with Fail msg ->
                   raise
                     (Fail
                        (Printf.sprintf "step %d: %s %s" i msg
                           (lits_to_string lits)))))
        proof;
      if db.contradiction then Ok ()
      else Error "proof does not derive the empty clause"
    with Fail msg -> Error msg

let model_check ~n_vars ~cnf ~assumptions ~model =
  if n_vars < 0 then Error "negative n_vars"
  else if Array.length model < n_vars then
    Error
      (Printf.sprintf "model has %d variables, formula needs %d"
         (Array.length model) n_vars)
  else
    let lit_true l = if l > 0 then model.(l - 1) else not model.(-l - 1) in
    let check where l =
      if not (in_range n_vars l) then
        raise (Fail (Printf.sprintf "%s: literal %d out of range" where l))
    in
    try
      List.iteri
        (fun i lits ->
          List.iter (check (Printf.sprintf "clause %d" i)) lits;
          if not (List.exists lit_true lits) then
            raise
              (Fail
                 (Printf.sprintf "clause %d %s is falsified by the model" i
                    (lits_to_string lits))))
        cnf;
      List.iter
        (fun l ->
          check "assumptions" l;
          if not (lit_true l) then
            raise
              (Fail (Printf.sprintf "assumption %d is falsified by the model" l)))
        assumptions;
      Ok ()
    with Fail msg -> Error msg
