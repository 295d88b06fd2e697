type model = Term.assignment

type outcome = Sat of model | Unsat | Unknown of Resil.Budget.reason

type session = {
  compiler : Compile.t;
  rev_vars : Term.var list ref;    (* session variables, newest first *)
  known : (int, unit) Hashtbl.t;   (* their vids: O(1) dedup *)
  trace : Cert.Proof.trace option; (* DRUP event log, when certifying *)
  opened_ns : int64;               (* session birth, monotonic *)
  clauses_seen : int ref;          (* solver clauses at the last solve *)
}

(* Session/query observability. Clauses are added by the compiler during
   assert/assume, so "clauses added per query" is the solver's clause
   count delta between consecutive [solve] calls on the same session. *)
let m_sessions = Obs.Metrics.counter "smtlite.sessions"

let m_queries = Obs.Metrics.counter "smtlite.queries"

let h_clauses_per_query =
  Obs.Metrics.histogram "smtlite.clauses_per_query"
    ~buckets:[| 0.; 10.; 100.; 1000.; 10_000.; 100_000.; 1_000_000. |]

let h_session_age = Obs.Metrics.histogram "smtlite.session_age_s"

let h_query_s = Obs.Metrics.histogram "smtlite.query_s"

let add_vars session vars =
  List.iter
    (fun (v : Term.var) ->
      if not (Hashtbl.mem session.known v.Term.vid) then begin
        Hashtbl.add session.known v.Term.vid ();
        session.rev_vars := v :: !(session.rev_vars)
      end)
    vars

let register_vars session f = add_vars session (Term.vars_of_formula f)

let session_vars session = List.rev !(session.rev_vars)

let open_session ?trace f =
  let sink = Option.map Cert.Proof.sink trace in
  Obs.Metrics.incr m_sessions;
  let session =
    {
      compiler = Compile.create ?sink ();
      rev_vars = ref [];
      known = Hashtbl.create 64;
      trace;
      opened_ns = Obs.Clock.now_ns ();
      clauses_seen = ref 0;
    }
  in
  register_vars session f;
  Compile.assert_formula session.compiler f;
  (* Branch on the problem variables before the Tseitin internals: the
     formula is a circuit over them, so full input assignments propagate
     to a decision in one sweep. *)
  Compile.prioritize session.compiler (session_vars session);
  session

let assert_also session f =
  register_vars session f;
  Compile.assert_formula session.compiler f

let declare session vars =
  (* Compile (and range-constrain) variables before solving, so that
     models bind them and blocking clauses can mention them — required
     for projection variables that do not occur in the formula. *)
  add_vars session vars;
  List.iter (fun v -> ignore (Compile.var_bv session.compiler v)) vars

type assumption = Sat.Lit.t

let assume session f =
  register_vars session f;
  Compile.compile_formula session.compiler f

let extract_model session =
  List.map (fun v -> (v, Compile.var_value session.compiler v)) (session_vars session)

let solve ?(assumptions = []) ?max_conflicts ?budget session =
  let solver = Compile.solver session.compiler in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_queries;
    let nclauses = Sat.Solver.nclauses solver in
    Obs.Metrics.observe h_clauses_per_query
      (float_of_int (nclauses - !(session.clauses_seen)));
    session.clauses_seen := nclauses;
    Obs.Metrics.observe h_session_age (Obs.Clock.elapsed_s ~since:session.opened_ns)
  end;
  let t0 = if Obs.Metrics.enabled () then Obs.Clock.now_ns () else 0L in
  let outcome =
    Obs.Span.with_ "smtlite.solve" (fun () ->
        match Sat.Solver.solve ~assumptions ?max_conflicts ?budget solver with
        | Sat.Solver.Sat -> Sat (extract_model session)
        | Sat.Solver.Unsat -> Unsat
        | Sat.Solver.Unknown ->
            Unknown
              (Option.value
                 (Sat.Solver.last_interrupt solver)
                 ~default:Resil.Budget.Conflicts))
  in
  if Obs.Metrics.enabled () then
    Obs.Metrics.observe h_query_s (Obs.Clock.elapsed_s ~since:t0);
  outcome

let solve_certified ?(assumptions = []) ?max_conflicts ?budget session =
  let outcome = solve ~assumptions ?max_conflicts ?budget session in
  let cert =
    match session.trace with
    | None -> None
    | Some trace -> (
        let solver = Compile.solver session.compiler in
        let n_vars = Sat.Solver.nvars solver in
        let asn_dimacs = List.map Sat.Lit.to_dimacs assumptions in
        match outcome with
        | Sat _ ->
            Some
              (Cert.Verdict.of_trace_model ~n_vars ~assumptions:asn_dimacs
                 ~model:(Sat.Solver.model solver) trace)
        | Unsat -> (
            match Cert.Verdict.of_trace_unsat ~n_vars trace with
            | Ok c -> Some c
            | Error _ -> None)
        | Unknown _ -> None)
  in
  (outcome, cert)

let block session vars = Compile.block_assignment session.compiler vars

let prioritize session vars = Compile.prioritize session.compiler vars

let fresh_assumption session = Bitblast.Cnf.fresh (Compile.cnf session.compiler)

let block_under session ~guard vars =
  Compile.block_assignment ~guard session.compiler vars

let var_bits session v =
  add_vars session [ v ];
  Compile.var_bits session.compiler v

let assume_parity session bits ~parity =
  let x = Bitblast.Cnf.g_xor_list (Compile.cnf session.compiler) bits in
  if parity then x else Bitblast.Cnf.g_not x

let check ?max_conflicts ?budget f = solve ?max_conflicts ?budget (open_session f)

let check_certified ?max_conflicts f =
  let trace = Cert.Proof.create () in
  solve_certified ?max_conflicts (open_session ~trace f)

let enumerate ?(limit = max_int) ?max_conflicts ?budget f ~project =
  if project = [] then invalid_arg "Solve.enumerate: empty projection";
  let session = open_session f in
  declare session project;
  let rec loop acc n =
    if n >= limit then (List.rev acc, `Truncated)
    else
      match solve ?max_conflicts ?budget session with
      | Unsat -> (List.rev acc, `Complete)
      | Unknown r -> (List.rev acc, `Budget r)
      | Sat model ->
          block session project;
          loop (model :: acc) (n + 1)
  in
  loop [] 0

let stats session = Sat.Solver.stats (Compile.solver session.compiler)
