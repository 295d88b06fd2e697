module T = Smtlite.Term
module Solve = Smtlite.Solve
module B = Util.Bigcount
module J = Util.Json

type status = Decided | Exhausted of Resil.Budget.reason

type result = {
  count : B.t;
  total : B.t;
  cubes : int;
  splits : int;
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

(* The warm session answers probes as assumptions, so no probe pays a
   fresh Tseitin encoding. It is built, and each of [f] and [¬f]
   compiled into it, only when a cube first needs it: a certified count
   whose root is decided on its traced session never builds it. *)
type warm = {
  session : Solve.session;
  a_f : Solve.assumption Lazy.t;
  a_nf : Solve.assumption Lazy.t;
}

type engine = {
  space : Space.t;
  f : T.formula;
  budget : Resil.Budget.t option;
  certify : bool;
  enum_limit : int;
  warm : warm Lazy.t;
  mutable calls : int;
  mutable splits : int;
}

type kind = K_unsat | K_full | K_enum of int array list

type decided = { cube : Space.cube; kind : kind; proof : Certificate.proof option }

let dims_list (space : Space.t) = Array.to_list space.Space.dims

let open_session ?trace space g =
  let s = Solve.open_session ?trace g in
  Solve.declare s (dims_list space);
  Solve.prioritize s (dims_list space);
  s

let make_engine ?budget ~certify ~enum_limit f space =
  let warm =
    lazy
      (let session = open_session space T.tru in
       {
         session;
         a_f = lazy (Solve.assume session f);
         a_nf = lazy (Solve.assume session (T.not_ f));
       })
  in
  { space; f; budget; certify; enum_limit; warm; calls = 0; splits = 0 }

let warm e = Lazy.force e.warm

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

let solve_warm e assumptions =
  answer e (Solve.solve ~assumptions ?budget:e.budget (warm e).session, None)

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

(* Plain mode: decide one cube on the warm session, or ask for a split.
   Blocking clauses added while enumerating are permanent but harmless:
   they exclude points of THIS cube only, and the cube family is
   laminar, so no other live cube contains them. *)
let decide_plain e cube =
  let w = warm e in
  let a_c = Solve.assume w.session (Space.formula cube) in
  let solve () = solve_warm e [ a_c; Lazy.force w.a_f ] in
  match solve () with
  | Refuted _ -> `Decided (K_unsat, None)
  | Model _ when Array.length cube = 0 ->
      (* The zero-dimensional cube is the single empty point; a Sat
         answer makes it a full cube (there is nothing to block). *)
      `Decided (K_full, None)
  | Model m0 when small e cube ->
      `Decided (K_enum (fst (enumerate e w.session solve m0)), None)
  | Model _ -> (
      match solve_warm e [ a_c; Lazy.force w.a_nf ] with
      | Refuted _ -> `Decided (K_full, None)
      | Model _ -> `Split)

(* Certify mode: decide one cube on its own proof-traced session for
   [f ∧ cube], so the evidence is the decision itself and its bytes
   depend only on (formula, cube) — never on worker scheduling or
   warm-session history. Only a large satisfiable cube asks the warm
   session whether [¬f ∧ cube] is UNSAT; a full cube is then proved by
   a traced refutation of [¬f ∧ cube], a mixed one is split. *)
let decide_certified e cube =
  let cf = Space.formula cube in
  let traced g = open_session ~trace:(Cert.Proof.create ()) e.space g in
  let proof what = function
    | Some c -> c
    | None -> failwith ("count: no certificate for " ^ what)
  in
  let full () =
    match solve_traced e (traced (T.and_ [ T.not_ e.f; cf ])) with
    | Refuted c ->
        let c = proof "a full cube" c in
        `Decided (K_full, Some (Certificate.Full_cube c))
    | Model _ ->
        failwith "count: certifier disagrees with the search on a full cube"
  in
  let s = traced (T.and_ [ e.f; cf ]) in
  let solve () = solve_traced e s in
  match solve () with
  | Refuted c ->
      let c = proof "an unsat cube" c in
      `Decided (K_unsat, Some (Certificate.Unsat_cube c))
  | Model _ when Array.length cube = 0 -> full ()
  | Model m0 when small e cube ->
      let witnesses, c = enumerate e s solve m0 in
      let completion = proof "an enumerated cube" c in
      `Decided
        (K_enum witnesses, Some (Certificate.Enum_cube { witnesses; completion }))
  | Model _ -> (
      let w = warm e in
      match solve_warm e [ Solve.assume w.session cf; Lazy.force w.a_nf ] with
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
      match (if e.certify then decide_certified else decide_plain) e cube with
      | `Split ->
          e.splits <- e.splits + 1;
          Obs.Metrics.incr m_splits;
          frontier := children cube @ rest
      | `Decided (kind, proof) ->
          frontier := rest;
          decided := { cube; kind; proof } :: !decided;
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

let ranges_json rs =
  J.List
    (Array.to_list
       (Array.map (fun (lo, hi) -> J.List [ J.Int lo; J.Int hi ]) rs))

let ranges_of_json j =
  match j with
  | J.List l ->
      Ok
        (Array.of_list
           (List.map
              (function
                | J.List [ J.Int lo; J.Int hi ] -> (lo, hi)
                | _ -> raise Exit)
              l))
  | _ -> Error "malformed ranges"

let decided_json d =
  let base = [ ("ranges", ranges_json (Space.ranges d.cube)) ] in
  let base =
    base
    @
    match d.kind with
    | K_unsat -> [ ("kind", J.String "u") ]
    | K_full -> [ ("kind", J.String "f") ]
    | K_enum ws ->
        [
          ("kind", J.String "e");
          ( "witnesses",
            J.List
              (List.map
                 (fun w ->
                   J.List (Array.to_list (Array.map (fun v -> J.Int v) w)))
                 ws) );
        ]
  in
  let base =
    base
    @
    match d.proof with
    | None -> []
    | Some p -> [ ("proof", Certificate.proof_to_json p) ]
  in
  J.Obj base

let save_ckpt ~path ~key ~decided ~frontier =
  let data =
    J.Obj
      [
        ("key", J.String key);
        ("decided", J.List (List.rev_map decided_json decided));
        ( "frontier",
          J.List (List.map (fun c -> ranges_json (Space.ranges c)) frontier) );
      ]
  in
  Resil.Ckpt.save ~kind:ckpt_kind ~path data

let load_ckpt ~path ~key space =
  if not (Sys.file_exists path) then None
  else
    let fail fmt =
      Printf.ksprintf (fun s -> invalid_arg ("count: checkpoint " ^ path ^ ": " ^ s)) fmt
    in
    match Resil.Ckpt.load ~kind:ckpt_kind ~path with
    | Error e -> fail "%s" e
    | Ok data -> (
        let member name =
          match J.member name data with
          | Some v -> v
          | None -> fail "missing field %S" name
        in
        (match member "key" with
        | J.String k when k = key -> ()
        | J.String _ -> fail "belongs to a different count query"
        | _ -> fail "malformed key");
        let cube_of j =
          match ranges_of_json j with
          | Ok rs -> (
              match Space.of_ranges space rs with
              | Ok c -> c
              | Error e -> fail "%s" e)
          | Error e -> fail "%s" e
          | exception Exit -> fail "malformed ranges"
        in
        let decided_of j =
          let cube =
            match J.member "ranges" j with
            | Some r -> cube_of r
            | None -> fail "decided cube without ranges"
          in
          let kind =
            match J.member "kind" j with
            | Some (J.String "u") -> K_unsat
            | Some (J.String "f") -> K_full
            | Some (J.String "e") -> (
                match J.member "witnesses" j with
                | Some (J.List ws) ->
                    K_enum
                      (List.map
                         (function
                           | J.List vs ->
                               Array.of_list
                                 (List.map
                                    (function J.Int v -> v | _ -> fail "witness")
                                    vs)
                           | _ -> fail "witness")
                         ws)
                | _ -> fail "enum cube without witnesses")
            | _ -> fail "decided cube without kind"
          in
          let proof =
            match J.member "proof" j with
            | None -> None
            | Some p -> (
                (* The checkpoint envelope hands over a tree; its bytes
                   are the canonical encoding the certificate reader
                   takes. *)
                match Certificate.proof_of_string (J.to_string p) with
                | Ok pr -> Some pr
                | Error e -> fail "%s" e)
          in
          { cube; kind; proof }
        in
        match (member "decided", member "frontier") with
        | J.List ds, J.List fs ->
            Some (List.map decided_of ds, List.map cube_of fs)
        | _ -> fail "malformed payload")

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let mass_of d =
  match d.kind with
  | K_unsat -> B.zero
  | K_full -> Space.size d.cube
  | K_enum ws -> B.of_int (List.length ws)

let assemble space ~certify ~status ~decided ~calls ~splits =
  (* [decided] arrives newest-first; entries are reported oldest-first so
     the certificate order matches decision order. *)
  let decided = List.rev decided in
  let mass = B.sum (List.map mass_of decided) in
  let count = B.mul mass (Space.free_factor space) in
  let certificate =
    match status with
    | Decided when certify ->
        let entries =
          List.map
            (fun d ->
              {
                Certificate.ranges = Space.ranges d.cube;
                proof = Option.get d.proof;
              })
            decided
        in
        Some (Certificate.make ~space ~count ~entries)
    | Decided | Exhausted _ -> None
  in
  {
    count;
    total = Space.total space;
    cubes = List.length decided;
    splits;
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

let count ?budget ?(certify = false) ?(enum_limit = 64) ?(jobs = 1)
    ?checkpoint ?(ckpt_key = "") ?(ckpt_every = 32) f ~project =
  let space = Space.of_projection f ~project in
  let enum_limit = max 1 enum_limit in
  let ckpt_every = max 1 ckpt_every in
  let children = children space in
  let root = Space.full_cube space in
  let e = make_engine ?budget ~certify ~enum_limit f space in
  let finish ~status ~decided ~calls ~splits =
    assemble space ~certify ~status ~decided ~calls ~splits
  in
  match checkpoint with
  | Some path ->
      (* Checkpointed runs are sequential: the frontier is a single
         worklist, saved every [ckpt_every] decided cubes and at every
         exit, so a resumed run continues from the decided-cube
         frontier. *)
      let decided, frontier =
        match load_ckpt ~path ~key:ckpt_key space with
        | Some (ds, fs) -> (ref (List.rev ds), ref fs)
        | None -> (ref [], ref [ root ])
      in
      let since = ref 0 in
      let save () =
        save_ckpt ~path ~key:ckpt_key ~decided:!decided ~frontier:!frontier
      in
      let on_decided () =
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
      finish ~status ~decided:!decided ~calls:e.calls ~splits:e.splits
  | None when jobs <= 1 ->
      let decided = ref [] and frontier = ref [ root ] in
      let status =
        run_worklist e ~children ~frontier ~decided ~on_decided:ignore
      in
      finish ~status ~decided:!decided ~calls:e.calls ~splits:e.splits
  | None -> (
      (* The calling domain decides the root; only the tops of a mixed
         root fan out. *)
      let decided = ref [] and frontier = ref [ root ] in
      match step e ~children ~frontier ~decided ~on_decided:ignore with
      | exception Out_of_budget r ->
          finish ~status:(Exhausted r) ~decided:[] ~calls:e.calls
            ~splits:e.splits
      | () ->
          let results =
            Util.Parallel.map ~jobs
              (fun top ->
                let e = make_engine ?budget ~certify ~enum_limit f space in
                let decided = ref [] and frontier = ref [ top ] in
                let status =
                  run_worklist e ~children ~frontier ~decided
                    ~on_decided:ignore
                in
                (!decided, status, e.calls, e.splits))
              (Array.of_list !frontier)
          in
          (* Each per-top list is newest-first; prepending in top order
             yields newest-first overall, so the final [List.rev] in
             [assemble] reports tops in decision order — the same order
             the sequential worklist produces. *)
          let decided =
            Array.fold_left (fun acc (ds, _, _, _) -> ds @ acc) !decided results
          in
          let status =
            Array.fold_left
              (fun acc (_, s, _, _) ->
                match acc with Decided -> s | Exhausted _ -> acc)
              Decided results
          in
          let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
          finish ~status ~decided
            ~calls:(e.calls + sum (fun (_, _, c, _) -> c))
            ~splits:(e.splits + sum (fun (_, _, _, s) -> s)))
