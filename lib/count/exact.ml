module T = Smtlite.Term
module Solve = Smtlite.Solve
module B = Util.Bigcount
module J = Util.Json

type status = Decided | Exhausted of Resil.Budget.reason

type result = {
  count : B.t;
  total : B.t;
  cubes : int;
  solver_calls : int;
  certificate : Certificate.t option;
  status : status;
}

exception Out_of_budget of Resil.Budget.reason

let m_cubes = Obs.Metrics.counter "count.cubes"

let m_splits = Obs.Metrics.counter "count.splits"

let m_calls = Obs.Metrics.counter "count.solver_calls"

(* ------------------------------------------------------------------ *)
(* Engine: one decision per cube                                       *)
(* ------------------------------------------------------------------ *)

(* The warm session answers "is [¬f ∧ cube] UNSAT?" as assumptions, so
   no probe pays a fresh Tseitin encoding. It is built, and [¬f]
   compiled into it, only when a large satisfiable cube first needs it:
   a count whose root is decided on its traced session never builds
   it. *)
type engine = {
  space : Space.t;
  f : T.formula;
  budget : Resil.Budget.t option;
  enum_limit : int;
  warm : (Solve.session * Solve.assumption) Lazy.t;
  mutable calls : int;
}

type kind = K_unsat | K_full | K_enum of int array list

type decided = {
  cube : Space.cube;
  kind : kind;
  proof : Certificate.proof Lazy.t;
}

let dims_list (space : Space.t) = Array.to_list space.Space.dims

let open_session ?trace space g =
  let s = Solve.open_session ?trace g in
  Solve.declare s (dims_list space);
  Solve.prioritize s (dims_list space);
  s

let make_engine ?budget ~enum_limit f space =
  let warm =
    lazy
      (let session = open_session space T.tru in
       (session, Solve.assume session (T.not_ f)))
  in
  { space; f; budget; enum_limit; warm; calls = 0 }

(* A solver answer; UNSAT carries the session's refutation when the
   session is proof-traced. A stopped solve raises [Out_of_budget]. *)
type answer = Model of T.assignment | Refuted of Cert.Verdict.t option

let answer e outcome =
  e.calls <- e.calls + 1;
  Obs.Metrics.incr m_calls;
  match outcome with
  | Solve.Sat m, _ -> Model m
  | Solve.Unsat, c -> Refuted c
  | Solve.Unknown r, _ -> raise (Out_of_budget r)

let solve_traced e s = answer e (Solve.solve_certified ?budget:e.budget s)

let witness_of (space : Space.t) model =
  Array.map (fun v -> T.lookup model v) space.Space.dims

(* The rest of a cube whose first model [m0] [solve] just returned on
   [s]: block each model and re-solve until UNSAT. *)
let enumerate e s solve m0 =
  let rec go acc =
    Solve.block s (dims_list e.space);
    match solve () with
    | Refuted c -> (List.rev acc, c)
    | Model m -> go (witness_of e.space m :: acc)
  in
  go [ witness_of e.space m0 ]

let small e cube = B.compare (Space.size cube) (B.of_int e.enum_limit) <= 0

(* Decide one cube on its own proof-traced session for [f ∧ cube], so
   the evidence is the decision itself and its bytes depend only on
   (formula, cube) — never on worker scheduling or warm-session
   history. Only a large satisfiable cube asks the warm session whether
   [¬f ∧ cube] is UNSAT; a full cube is then proved by a traced
   refutation of [¬f ∧ cube], a mixed one is split. *)
let decide e cube =
  let cf = Space.formula cube in
  let traced g = open_session ~trace:(Cert.Proof.create ()) e.space g in
  let proof what = function
    | Some c -> c
    | None -> failwith ("count: no certificate for " ^ what)
  in
  let full () =
    match solve_traced e (traced (T.and_ [ T.not_ e.f; cf ])) with
    | Refuted c ->
        `Decided (K_full, Certificate.Full_cube (proof "a full cube" c))
    | Model _ ->
        failwith "count: certifier disagrees with the search on a full cube"
  in
  let s = traced (T.and_ [ e.f; cf ]) in
  let solve () = solve_traced e s in
  match solve () with
  | Refuted c ->
      `Decided (K_unsat, Certificate.Unsat_cube (proof "an unsat cube" c))
  | Model _ when Array.length cube = 0 -> full ()
  | Model m0 when small e cube ->
      let witnesses, c = enumerate e s solve m0 in
      let completion = proof "an enumerated cube" c in
      `Decided
        (K_enum witnesses, Certificate.Enum_cube { witnesses; completion })
  | Model _ -> (
      let session, a_nf = Lazy.force e.warm in
      let a_c = Solve.assume session cf in
      let solved =
        Solve.solve ~assumptions:[ a_c; a_nf ] ?budget:e.budget session
      in
      match answer e (solved, None) with
      | Refuted _ -> full ()
      | Model _ -> `Split)

(* ------------------------------------------------------------------ *)
(* Worklist                                                            *)
(* ------------------------------------------------------------------ *)

(* Decide the head of the frontier: a decided cube moves to [decided], a
   mixed one is replaced by [children cube]. Raises [Out_of_budget],
   leaving the frontier as it was. *)
let step e ~children ~frontier ~decided ~on_decided =
  match !frontier with
  | [] -> ()
  | cube :: rest -> (
      Option.iter
        (fun r -> raise (Out_of_budget r))
        (Option.bind e.budget Resil.Budget.check);
      match decide e cube with
      | `Split ->
          Obs.Metrics.incr m_splits;
          frontier := children cube @ rest
      | `Decided (kind, proof) ->
          frontier := rest;
          decided := { cube; kind; proof = Lazy.from_val proof } :: !decided;
          Obs.Metrics.incr m_cubes;
          on_decided ())

let run_worklist e ~children ~frontier ~decided ~on_decided =
  match
    while !frontier <> [] do
      step e ~children ~frontier ~decided ~on_decided
    done
  with
  | () -> Decided
  | exception Out_of_budget r -> Exhausted r

(* ------------------------------------------------------------------ *)
(* Checkpointing (fannet-ckpt/1, kind "count")                         *)
(* ------------------------------------------------------------------ *)

let ckpt_kind = "count"

let ranges_json cube =
  J.List
    (Array.to_list
       (Array.map
          (fun (lo, hi) -> J.List [ J.Int lo; J.Int hi ])
          (Space.ranges cube)))

let decided_json d =
  let kind =
    match d.kind with
    | K_unsat -> [ ("kind", J.String "u") ]
    | K_full -> [ ("kind", J.String "f") ]
    | K_enum ws ->
        [
          ("kind", J.String "e"); ("witnesses", J.List (List.map J.of_ints ws));
        ]
  in
  J.Obj
    ((("ranges", ranges_json d.cube) :: kind)
    @ [ ("proof", Certificate.proof_to_json (Lazy.force d.proof)) ])

(* [decided] holds each decided cube's JSON text, newest first: a cube's
   proof is encoded once, not at every save. *)
let save_ckpt ~path ~key ~decided ~frontier =
  Resil.Ckpt.save_string ~kind:ckpt_kind ~path
    (Printf.sprintf {|{"key":%s,"decided":[%s],"frontier":%s}|}
       (J.to_string (J.String key))
       (String.concat "," (List.rev decided))
       (J.to_string (J.List (List.map ranges_json frontier))))

let load_ckpt ~path ~key space =
  let fail e = invalid_arg ("count: checkpoint " ^ path ^ ": " ^ e) in
  let module C = J.Cursor in
  let cube c =
    let ranges = Array.of_list (C.list (C.pair C.int C.int) c) in
    match Space.of_ranges space ranges with
    | Ok cube -> cube
    | Error e -> C.fail c e
  in
  let proof bytes =
    let read f = C.field f "proof" Certificate.read_proof in
    match C.parse (C.obj read) bytes with Ok p -> p | Error e -> fail e
  in
  (* Each entry comes back with its bytes; its proof is only validated
     here, and parsed from those bytes when a certificate needs it. *)
  let decided c =
    let read f =
      let cube = C.field f "ranges" cube in
      match C.field f "kind" C.string with
      | "u" -> (cube, K_unsat)
      | "f" -> (cube, K_full)
      | "e" ->
          let ints c = Array.of_list (C.list C.int c) in
          (cube, K_enum (C.field f "witnesses" (C.list ints)))
      | k -> C.fail c ("unknown cube kind " ^ k)
    in
    let (cube, kind), bytes = C.with_bytes (C.obj read) c in
    ({ cube; kind; proof = lazy (proof bytes) }, bytes)
  in
  (* The key comes first, so another query's file is refused before its
     cubes are read against this space. *)
  let payload f =
    if C.field f "key" C.string <> key then
      fail "belongs to a different count query";
    let decided = C.field f "decided" (C.list decided) in
    (decided, C.field f "frontier" (C.list cube))
  in
  match Resil.Ckpt.load_with ~kind:ckpt_kind ~path (C.obj payload) with
  | Error e -> fail e
  | Ok p -> p

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let mass_of d =
  match d.kind with
  | K_unsat -> B.zero
  | K_full -> Space.size d.cube
  | K_enum ws -> B.of_int (List.length ws)

let assemble space ~status ~decided ~calls =
  (* [decided] arrives newest-first; entries are reported oldest-first so
     the certificate order matches decision order. *)
  let decided = List.rev decided in
  let mass = B.sum (List.map mass_of decided) in
  let count = B.mul mass (Space.free_factor space) in
  let certificate =
    match status with
    | Decided ->
        let entries =
          List.map
            (fun d ->
              {
                Certificate.ranges = Space.ranges d.cube;
                proof = Lazy.force d.proof;
              })
            decided
        in
        Some (Certificate.make ~space ~count ~entries)
    | Exhausted _ -> None
  in
  {
    count;
    total = Space.total space;
    cubes = List.length decided;
    solver_calls = calls;
    certificate;
    status;
  }

(* The root cube goes first in every mode. A decided root is a
   one-entry certificate; a mixed root too large to enumerate is
   replaced by a fixed-target decomposition (the root halved, largest
   cube first, into up to [top_target] tops) instead of one bisection,
   giving a parallel run its units of work. The tops are a function of
   the space alone and cube decisions are semantic (Sat/Unsat of
   [f ∧ cube] and [¬f ∧ cube], unaffected by session history), so the
   decided partition and therefore the certificate bytes do not depend
   on [jobs] or on interrupt/resume boundaries. *)
let top_target = 16

let top_split space ~target =
  let rec grow cubes n =
    if n >= target then cubes
    else
      let best = ref (-1) and best_size = ref B.one and i = ref 0 in
      List.iter
        (fun c ->
          let s = Space.size c in
          if B.compare s !best_size > 0 then begin
            best := !i;
            best_size := s
          end;
          incr i)
        cubes;
      if !best < 0 then cubes
      else
        match Space.split (List.nth cubes !best) with
        | None -> cubes
        | Some (a, b) ->
            let cubes =
              List.concat
                (List.mapi
                   (fun k c -> if k = !best then [ a; b ] else [ c ])
                   cubes)
            in
            grow cubes (n + 1)
  in
  grow [ Space.full_cube space ] 1

let children space cube =
  if Space.ranges cube = Space.ranges (Space.full_cube space) then
    top_split space ~target:top_target
  else
    match Space.split cube with
    | Some (a, b) -> [ a; b ]
    | None -> failwith "count: mixed single-point cube"

let count ?budget ?(enum_limit = 64) ?(jobs = 1)
    ?checkpoint ?(ckpt_key = "") ?(ckpt_every = 32) f ~project =
  let space = Space.of_projection f ~project in
  let enum_limit = max 1 enum_limit in
  let ckpt_every = max 1 ckpt_every in
  let children = children space in
  let root = Space.full_cube space in
  let e = make_engine ?budget ~enum_limit f space in
  let finish ~status ~decided ~calls = assemble space ~status ~decided ~calls in
  match checkpoint with
  | Some path ->
      (* Checkpointed runs are sequential: the frontier is a single
         worklist, saved every [ckpt_every] decided cubes and at every
         exit, so a resumed run continues from the decided-cube
         frontier. *)
      let decided, encoded, frontier =
        if Sys.file_exists path then
          let ds, fs = load_ckpt ~path ~key:ckpt_key space in
          (ref (List.rev_map fst ds), ref (List.rev_map snd ds), ref fs)
        else (ref [], ref [], ref [ root ])
      in
      let since = ref 0 in
      let save () =
        save_ckpt ~path ~key:ckpt_key ~decided:!encoded ~frontier:!frontier
      in
      let on_decided () =
        encoded := J.to_string (decided_json (List.hd !decided)) :: !encoded;
        incr since;
        if !since >= ckpt_every then begin
          since := 0;
          save ()
        end
      in
      let status = run_worklist e ~children ~frontier ~decided ~on_decided in
      (* A finished count leaves no file behind: the next run with this
         key starts afresh instead of returning the stored answer. *)
      (match status with
      | Decided -> if Sys.file_exists path then Sys.remove path
      | Exhausted _ -> save ());
      finish ~status ~decided:!decided ~calls:e.calls
  | None when jobs <= 1 ->
      let decided = ref [] and frontier = ref [ root ] in
      let status =
        run_worklist e ~children ~frontier ~decided ~on_decided:ignore
      in
      finish ~status ~decided:!decided ~calls:e.calls
  | None -> (
      (* The calling domain decides the root; only the tops of a mixed
         root fan out. *)
      let decided = ref [] and frontier = ref [ root ] in
      match step e ~children ~frontier ~decided ~on_decided:ignore with
      | exception Out_of_budget r ->
          finish ~status:(Exhausted r) ~decided:[] ~calls:e.calls
      | () ->
          let results =
            Util.Parallel.map ~jobs
              (fun top ->
                let e = make_engine ?budget ~enum_limit f space in
                let decided = ref [] and frontier = ref [ top ] in
                let status =
                  run_worklist e ~children ~frontier ~decided
                    ~on_decided:ignore
                in
                (!decided, status, e.calls))
              (Array.of_list !frontier)
          in
          (* Each per-top list is newest-first; prepending in top order
             yields newest-first overall, so the final [List.rev] in
             [assemble] reports tops in decision order — the same order
             the sequential worklist produces. *)
          let decided =
            Array.fold_left (fun acc (ds, _, _) -> ds @ acc) !decided results
          in
          let status =
            Array.fold_left
              (fun acc (_, s, _) ->
                match acc with Decided -> s | Exhausted _ -> acc)
              Decided results
          in
          let calls =
            Array.fold_left (fun acc (_, _, c) -> acc + c) e.calls results
          in
          finish ~status ~decided ~calls)
