(* Certificate subsystem tests: DRUP proof logging on the CDCL solver,
   the independent lib/cert checker, certified verdicts through Smtlite /
   Backend / Tolerance, and mutation tests proving that corrupted proofs
   (the signature of a buggy solver) are rejected. *)

module S = Sat.Solver
module P = Cert.Proof
module R = Cert.Rup
module V = Cert.Verdict

let lit v sign = Sat.Lit.make v sign

let pigeonhole_clauses ~pigeons ~holes =
  let var p h = (p * holes) + h in
  let clauses = ref [] in
  for p = 0 to pigeons - 1 do
    clauses := List.init holes (fun h -> (var p h, true)) :: !clauses
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        clauses := [ (var p1 h, false); (var p2 h, false) ] :: !clauses
      done
    done
  done;
  (pigeons * holes, !clauses)

(* Solve with a trace attached and return (result, solver, trace). *)
let traced_solve ?assumptions ?max_learnts n_vars clauses =
  let s = S.create () in
  let trace = P.attach s in
  let vars = Array.init n_vars (fun _ -> S.new_var s) in
  (match max_learnts with None -> () | Some n -> S.set_max_learnts s n);
  List.iter
    (fun clause ->
      S.add_clause s (List.map (fun (v, sign) -> Sat.Lit.make vars.(v) sign) clause))
    clauses;
  let r = S.solve ?assumptions s in
  (r, s, trace)

let check_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: certificate rejected: %s" what e

let check_rejected what = function
  | Ok () -> Alcotest.failf "%s: corrupted certificate accepted" what
  | Error _ -> ()

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_error_mentions what sub = function
  | Ok () -> Alcotest.failf "%s: accepted" what
  | Error e ->
      if not (contains e sub) then
        Alcotest.failf "%s: error %S does not mention %S" what e sub

let unsat_cert what s trace =
  match V.of_trace_unsat ~n_vars:(S.nvars s) trace with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s: no refutation certificate: %s" what e

(* ---------- checker on solver proofs ---------- *)

let test_php_proof_checks () =
  let n, clauses = pigeonhole_clauses ~pigeons:6 ~holes:5 in
  let r, s, trace = traced_solve n clauses in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  let cert = unsat_cert "php" s trace in
  check_ok "php(6,5)" (V.check cert)

let test_trivial_unsat_proof () =
  (* Contradiction found during add_clause (level-0), before any search. *)
  let r, s, trace = traced_solve 1 [ [ (0, true) ]; [ (0, false) ] ] in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  check_ok "unit contradiction" (V.check (unsat_cert "trivial" s trace))

let test_sat_model_certificate () =
  let n, clauses = pigeonhole_clauses ~pigeons:5 ~holes:5 in
  let r, s, trace = traced_solve n clauses in
  Alcotest.(check bool) "sat" true (r = S.Sat);
  let cert =
    V.of_trace_model ~n_vars:(S.nvars s) ~assumptions:[] ~model:(S.model s) trace
  in
  check_ok "php(5,5) model" (V.check cert)

let test_assumptions_proof () =
  (* a -> b; UNSAT under {a, !b}. The proof must check with the
     assumptions and be rejected without them (the CNF alone is sat). *)
  let r, s, trace =
    traced_solve 2
      [ [ (0, false); (1, true) ] ]
      ~assumptions:[ lit 0 true; lit 1 false ]
  in
  Alcotest.(check bool) "unsat under assumptions" true (r = S.Unsat);
  let cert = unsat_cert "assumptions" s trace in
  (match cert with
  | V.Refutation { assumptions; cnf; proof; n_vars } ->
      Alcotest.(check int) "two assumptions" 2 (List.length assumptions);
      check_ok "with assumptions" (V.check cert);
      check_rejected "without assumptions"
        (R.check_unsat ~n_vars ~cnf ~assumptions:[] ~proof)
  | V.Model _ -> Alcotest.fail "expected a refutation");
  (* The solver (and its trace) stay usable: a later unconditional solve
     is Sat and earlier Empty events must not poison anything. *)
  Alcotest.(check bool) "sat without assumptions" true (S.solve s = S.Sat)

let test_deletion_and_restarts_stay_valid () =
  (* A tiny learnt limit forces reduce_db; php(7,6) takes well over 256
     conflicts, so Luby restarts interleave too. *)
  let n, clauses = pigeonhole_clauses ~pigeons:7 ~holes:6 in
  let r, s, trace = traced_solve n clauses ~max_learnts:20 in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  let stats = S.stats s in
  Alcotest.(check bool) "restarts occurred" true (stats.S.restarts > 0);
  let deletions = ref 0 in
  P.iter (function P.Delete _ -> incr deletions | _ -> ()) trace;
  Alcotest.(check bool) "deletions logged" true (!deletions > 0);
  check_ok "php(7,6) with deletion" (V.check (unsat_cert "php76" s trace))

let test_incremental_session_certificates () =
  (* Same solver, several answers; each Unsat snapshot must check on its
     own even though the trace keeps growing. *)
  let s = S.create () in
  let trace = P.attach s in
  let a = S.new_var s and b = S.new_var s in
  S.add_clause s [ lit a false; lit b true ];
  Alcotest.(check bool) "unsat 1" true
    (S.solve ~assumptions:[ lit a true; lit b false ] s = S.Unsat);
  let c1 = unsat_cert "probe1" s trace in
  check_ok "probe 1" (V.check c1);
  Alcotest.(check bool) "sat between" true (S.solve s = S.Sat);
  let m =
    V.of_trace_model ~n_vars:(S.nvars s) ~assumptions:[] ~model:(S.model s) trace
  in
  check_ok "sat between cert" (V.check m);
  S.add_clause s [ lit a true ];
  S.add_clause s [ lit b false ];
  Alcotest.(check bool) "unsat 2" true (S.solve s = S.Unsat);
  check_ok "probe 2" (V.check (unsat_cert "probe2" s trace));
  (* First certificate still checks after the session moved on. *)
  check_ok "probe 1 again" (V.check c1)

(* ---------- random CNFs: every decided answer certifies ---------- *)

let random_cnf_gen =
  let open QCheck.Gen in
  let* n_vars = int_range 1 8 in
  let* n_clauses = int_range 1 30 in
  let clause =
    let* len = int_range 1 4 in
    list_size (return len) (pair (int_range 0 (n_vars - 1)) QCheck.Gen.bool)
  in
  let* clauses = list_size (return n_clauses) clause in
  return (n_vars, clauses)

let random_cnf_arbitrary =
  QCheck.make
    ~print:(fun (n, cs) -> Printf.sprintf "%d vars, %d clauses" n (List.length cs))
    random_cnf_gen

let prop_random_cnf_certifies =
  QCheck.Test.make ~name:"random CNF answers carry valid certificates" ~count:300
    random_cnf_arbitrary (fun (n_vars, clauses) ->
      let r, s, trace = traced_solve n_vars clauses in
      match r with
      | S.Unsat -> (
          match V.of_trace_unsat ~n_vars:(S.nvars s) trace with
          | Ok cert -> V.check cert = Ok ()
          | Error _ -> false)
      | S.Sat ->
          let cert =
            V.of_trace_model ~n_vars:(S.nvars s) ~assumptions:[]
              ~model:(S.model s) trace
          in
          V.check cert = Ok ()
      | S.Unknown -> false)

let prop_random_unsat_under_assumptions_certifies =
  (* Negate a random subset of a sat model as assumptions: often Unsat;
     every Unsat must yield a checkable assumption-relative proof. *)
  QCheck.Test.make ~name:"assumption-unsat answers carry valid certificates"
    ~count:150
    (QCheck.pair random_cnf_arbitrary (QCheck.make QCheck.Gen.(int_bound 1000)))
    (fun ((n_vars, clauses), seedish) ->
      let r, s, trace = traced_solve n_vars clauses in
      match r with
      | S.Sat ->
          let m = S.model s in
          let assumptions =
            List.init n_vars (fun v ->
                if (seedish lsr (v mod 10)) land 1 = 0 then lit v (not m.(v))
                else lit v m.(v))
          in
          (match S.solve ~assumptions s with
          | S.Unsat -> (
              match V.of_trace_unsat ~n_vars:(S.nvars s) trace with
              | Ok cert -> V.check cert = Ok ()
              | Error _ -> false)
          | S.Sat | S.Unknown -> true)
      | S.Unsat | S.Unknown -> true)

(* ---------- brute-force soundness of the checker ---------- *)

(* Random 3-CNF over 3-10 variables at 3-6 clauses per variable, around
   the satisfiability threshold: about a third of the formulas are
   unsatisfiable and most of those need lemmas, because unit propagation
   alone does not refute them (shorter clauses would make load-time
   propagation settle nearly every case). *)
let small_cnf_gen =
  let open QCheck.Gen in
  let* n_vars = int_range 3 10 in
  let* n_clauses = int_range (3 * n_vars) (6 * n_vars) in
  let clause =
    list_size (return 3)
      (map2 (fun v pos -> if pos then v else -v) (int_range 1 n_vars) bool)
  in
  let* cnf = list_size (return n_clauses) clause in
  return (n_vars, cnf)

(* Enumerate every assignment. *)
let brute_unsat n_vars cnf =
  let sat_under bits =
    let lit_true l = (bits lsr (abs l - 1)) land 1 = (if l > 0 then 1 else 0) in
    List.for_all (List.exists lit_true) cnf
  in
  let rec go bits = bits >= 1 lsl n_vars || ((not (sat_under bits)) && go (bits + 1)) in
  go 0

(* The solver's logged certificate for [cnf]. On a satisfiable formula
   the logged lemmas plus the empty clause are still a well-formed (and
   necessarily wrong) refutation for the checker to face. *)
let solver_refutation n_vars cnf =
  let r, _, trace =
    traced_solve n_vars
      (List.map (List.map (fun l -> (abs l - 1, l > 0))) cnf)
  in
  let proof = ref [] in
  P.iter
    (function
      | P.Learn lits -> proof := R.Learn lits :: !proof
      | P.Delete lits -> proof := R.Delete lits :: !proof
      | P.Input _ | P.Empty _ -> ())
    trace;
  (r, List.rev (R.Learn [] :: !proof))

let cnf_print (n_vars, cnf) =
  Printf.sprintf "%d vars: %s" n_vars
    (String.concat " "
       (List.map
          (fun c -> "{" ^ String.concat " " (List.map string_of_int c) ^ "}")
          cnf))

let prop_checker_matches_enumeration =
  QCheck.Test.make ~name:"solver proofs accepted exactly on unsat formulas"
    ~count:300
    (QCheck.make ~print:cnf_print small_cnf_gen)
    (fun (n_vars, cnf) ->
      let r, proof = solver_refutation n_vars cnf in
      let unsat = brute_unsat n_vars cnf in
      let accepted = R.check_unsat ~n_vars ~cnf ~assumptions:[] ~proof = Ok () in
      r = (if unsat then S.Unsat else S.Sat) && accepted = unsat)

type mutation =
  | Drop_lemma of int
  | Drop_literal of int * int
  | Negate_literal of int * int
  | Early_delete of int * int  (* insert at, copy of clause *)
  | Forged_lemma of int * int list  (* insert at, arbitrary clause *)
  | Drop_input of int

let mutate ~cnf ~proof m =
  let lemma_edit i f =
    List.mapi
      (fun k step ->
        match step with R.Learn lits when k = i -> R.Learn (f lits) | s -> s)
      proof
  in
  let edit_nth j f lits = List.mapi (fun k l -> if k = j then f l else l) lits in
  match m with
  | Drop_lemma i -> (cnf, List.filteri (fun k _ -> k <> i) proof)
  | Drop_literal (i, j) -> (cnf, lemma_edit i (List.filteri (fun k _ -> k <> j)))
  | Negate_literal (i, j) -> (cnf, lemma_edit i (edit_nth j (fun l -> -l)))
  | Early_delete (i, c) ->
      let clauses =
        cnf @ List.filter_map (function R.Learn l -> Some l | R.Delete _ -> None) proof
      in
      let victim = List.nth clauses (c mod List.length clauses) in
      let before = List.filteri (fun k _ -> k < i) proof in
      let after = List.filteri (fun k _ -> k >= i) proof in
      (cnf, before @ (R.Delete victim :: after))
  | Forged_lemma (i, lits) ->
      (cnf, List.filteri (fun k _ -> k < i) proof
            @ (R.Learn lits :: List.filteri (fun k _ -> k >= i) proof))
  | Drop_input c -> (List.filteri (fun k _ -> k <> c) cnf, proof)

let mutation_gen ~n_vars ~cnf ~proof =
  let open QCheck.Gen in
  let n = List.length proof and m = List.length cnf in
  let lemma_width i = match List.nth proof i with R.Learn l -> List.length l | _ -> 0 in
  let literal_site =
    let* i = int_bound (n - 1) in
    let* j = int_bound (max 0 (lemma_width i - 1)) in
    return (i, j)
  in
  oneof
    [
      map (fun i -> Drop_lemma i) (int_bound (n - 1));
      map (fun (i, j) -> Drop_literal (i, j)) literal_site;
      map (fun (i, j) -> Negate_literal (i, j)) literal_site;
      map2 (fun i c -> Early_delete (i, c)) (int_bound n) (int_bound 1000);
      map2
        (fun i lits -> Forged_lemma (i, lits))
        (int_bound n)
        (list_size (int_range 1 3)
           (map2 (fun v pos -> if pos then v else -v) (int_range 1 n_vars) bool));
      map (fun c -> Drop_input c) (int_bound (m - 1));
    ]

let mutation_to_string = function
  | Drop_lemma i -> Printf.sprintf "drop lemma %d" i
  | Drop_literal (i, j) -> Printf.sprintf "drop literal %d of lemma %d" j i
  | Negate_literal (i, j) -> Printf.sprintf "negate literal %d of lemma %d" j i
  | Early_delete (i, c) -> Printf.sprintf "delete clause #%d before step %d" c i
  | Forged_lemma (i, lits) ->
      Printf.sprintf "insert lemma {%s} before step %d"
        (String.concat " " (List.map string_of_int lits)) i
  | Drop_input c -> Printf.sprintf "drop input clause %d" c

let prop_mutated_proofs_stay_sound =
  let gen =
    let open QCheck.Gen in
    let* n_vars, cnf = small_cnf_gen in
    let _, proof = solver_refutation n_vars cnf in
    let* m = mutation_gen ~n_vars ~cnf ~proof in
    return ((n_vars, cnf), proof, m)
  in
  QCheck.Test.make ~name:"mutated proofs are only accepted on unsat formulas"
    ~count:1000
    (QCheck.make
       ~print:(fun (f, _, m) -> cnf_print f ^ "; " ^ mutation_to_string m)
       gen)
    (fun ((n_vars, cnf), proof, m) ->
      let cnf', proof' = mutate ~cnf ~proof m in
      match R.check_unsat ~n_vars ~cnf:cnf' ~assumptions:[] ~proof:proof' with
      | Ok () -> brute_unsat n_vars cnf'
      | Error _ -> true)

(* ---------- mutation tests: corrupted proofs are rejected ---------- *)

let test_mutation_dropped_literal () =
  (* The acceptance-criterion scenario: a solver bug that skips one
     literal of a learnt conflict clause. Simulated by corrupting the
     logged proof the same way; the checker must reject it. *)
  let n, clauses = pigeonhole_clauses ~pigeons:6 ~holes:5 in
  let r, s, trace = traced_solve n clauses in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  match unsat_cert "php" s trace with
  | V.Model _ -> Alcotest.fail "expected refutation"
  | V.Refutation ({ proof; _ } as rf) ->
      let mutated = ref false in
      let proof' =
        List.map
          (function
            | R.Learn lits when (not !mutated) && List.length lits >= 2 ->
                mutated := true;
                R.Learn (List.tl lits)
            | step -> step)
          proof
      in
      Alcotest.(check bool) "found a clause to mutate" true !mutated;
      check_rejected "dropped learnt literal"
        (V.check (V.Refutation { rf with proof = proof' }))

let test_mutation_removed_lemma () =
  (* cnf: all four 2-clauses over {a,b}. Honest proof: [a], then []. A
     buggy solver that forgets to derive [a] cannot justify the empty
     clause. *)
  let cnf = [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  check_ok "honest"
    (R.check_unsat ~n_vars:2 ~cnf ~assumptions:[]
       ~proof:[ R.Learn [ 1 ]; R.Learn [] ]);
  check_rejected "lemma removed"
    (R.check_unsat ~n_vars:2 ~cnf ~assumptions:[] ~proof:[ R.Learn [] ])

let test_mutation_non_rup_lemma () =
  check_rejected "non-RUP lemma"
    (R.check_unsat ~n_vars:2 ~cnf:[ [ 1; 2 ] ] ~assumptions:[]
       ~proof:[ R.Learn [ 1 ] ])

let test_mutation_delete_then_use () =
  (* {a,b}, {-a,c}, {-b,c}, {-c,d}, {-c,-d}: [c] is RUP — unless {-a,c}
     was deleted first. A solver that logs a deletion it then keeps using
     must be caught. *)
  let cnf = [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ]; [ -3; 4 ]; [ -3; -4 ] ] in
  check_ok "use before delete"
    (R.check_unsat ~n_vars:4 ~cnf ~assumptions:[]
       ~proof:[ R.Learn [ 3 ]; R.Delete [ -1; 3 ]; R.Learn [] ]);
  check_rejected "deleted clause still needed"
    (R.check_unsat ~n_vars:4 ~cnf ~assumptions:[]
       ~proof:[ R.Delete [ -1; 3 ]; R.Learn [ 3 ]; R.Learn [] ])

let test_mutation_unknown_deletion () =
  check_error_mentions "deleting a clause never added" "delet"
    (R.check_unsat ~n_vars:3 ~cnf:[ [ 1; 2 ] ] ~assumptions:[]
       ~proof:[ R.Delete [ 1; 3 ] ])

let test_mutation_out_of_range_literal () =
  check_rejected "literal out of range"
    (R.check_unsat ~n_vars:1 ~cnf:[ [ 1 ] ] ~assumptions:[]
       ~proof:[ R.Learn [ 5 ] ]);
  check_rejected "zero literal"
    (R.check_unsat ~n_vars:1 ~cnf:[ [ 1; 0 ] ] ~assumptions:[] ~proof:[])

let test_mutation_incomplete_proof () =
  (* A proof that never reaches the empty clause proves nothing. *)
  check_rejected "no contradiction"
    (R.check_unsat ~n_vars:2 ~cnf:[ [ 1; 2 ] ] ~assumptions:[] ~proof:[])

let test_mutation_model_flip () =
  let cnf = [ [ 1; 2 ]; [ -1 ] ] in
  let model = [| false; true |] in
  check_ok "honest model" (R.model_check ~n_vars:2 ~cnf ~assumptions:[] ~model);
  check_rejected "flipped bit"
    (R.model_check ~n_vars:2 ~cnf ~assumptions:[] ~model:[| true; false |]);
  check_rejected "assumption violated"
    (R.model_check ~n_vars:2 ~cnf ~assumptions:[ -2 ] ~model)

let test_oversized_n_vars () =
  (* The declared variable count must not size the checker's arrays:
     absurd counts are answered, never raised. *)
  let cnf = [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  List.iter
    (fun n_vars ->
      let what = Printf.sprintf "n_vars = %d" n_vars in
      check_ok what
        (R.check_unsat ~n_vars ~cnf ~assumptions:[] ~proof:[ R.Learn [ 1 ] ]);
      check_rejected (what ^ ", no proof")
        (R.check_unsat ~n_vars ~cnf ~assumptions:[] ~proof:[]);
      check_rejected (what ^ ", model")
        (V.check
           (V.Model { n_vars; cnf = [ [ 1 ] ]; assumptions = []; model = [| true |] })))
    [ max_int; 1 lsl 40 ];
  (* Huge but in-range variables are renumbered, not allocated. *)
  let big = 1 lsl 40 in
  check_ok "sparse huge variables"
    (R.check_unsat ~n_vars:max_int
       ~cnf:[ [ big; 3 ]; [ -big; 3 ] ]
       ~assumptions:[ -3 ] ~proof:[]);
  check_rejected "sparse huge variables, sat"
    (R.check_unsat ~n_vars:max_int ~cnf:[ [ big; 3 ] ] ~assumptions:[ -3 ] ~proof:[]);
  (* min_int has no in-range negation. *)
  check_error_mentions "min_int literal" "out of range"
    (R.check_unsat ~n_vars:max_int ~cnf:[ [ min_int ] ] ~assumptions:[] ~proof:[]);
  check_error_mentions "min_int model literal" "out of range"
    (R.model_check ~n_vars:2 ~cnf:[ [ min_int ] ] ~assumptions:[]
       ~model:[| true; true |])

let test_deletion_index () =
  (* Clauses 5-8 are refuted by the lemma [1]; the rest exercise the
     deletion index, which is only built at the first deletion. [-5]
     forces 6 through the reason clause {5 6}. *)
  let cnf =
    [ [ 8; 9; 9 ]; [ 3; 4 ]; [ 3; 4 ]; [ -5 ]; [ 5; 6 ];
      [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ]
  in
  let run proof = R.check_unsat ~n_vars:9 ~cnf ~assumptions:[] ~proof in
  check_ok "deletions then refutation"
    (run
       [
         R.Delete [ 9; 8 ] (* input clause, duplicate literal normalised *);
         R.Delete [ 3; 4 ];
         R.Delete [ 4; 3 ] (* the second copy *);
         R.Learn [ 1; 3 ];
         R.Delete [ 3; 1 ] (* a lemma added after the index was built *);
         R.Learn [ 1 ];
       ]);
  check_error_mentions "input clause deleted twice" "already-deleted"
    (run [ R.Delete [ 8; 9 ]; R.Delete [ 9; 8; 9 ] ]);
  check_error_mentions "both copies deleted, then a third" "already-deleted"
    (run [ R.Delete [ 3; 4 ]; R.Delete [ 3; 4 ]; R.Delete [ 3; 4 ] ]);
  check_error_mentions "lemma deleted twice" "already-deleted"
    (run [ R.Delete [ 3; 4 ]; R.Learn [ 1; 3 ]; R.Delete [ 1; 3 ]; R.Delete [ 1; 3 ] ]);
  check_error_mentions "never added" "never added" (run [ R.Delete [ 3; 9 ] ]);
  check_error_mentions "never added, first step" "step 0" (run [ R.Delete [ 3; 9 ] ]);
  check_ok "tautology deletions are ignored"
    (run [ R.Delete [ 7; -7 ]; R.Delete [ 9; 8; -9 ]; R.Learn [ 1 ] ]);
  (* The reason clause {5 6} is never really deleted, so deleting it
     again is not an already-deleted error. *)
  check_ok "reason deletion skipped"
    (run [ R.Delete [ 5; 6 ]; R.Delete [ 6; 5 ]; R.Delete [ 5; 6 ]; R.Learn [ 1 ] ])

(* ---------- drup / dimacs output ---------- *)

let test_drup_output_shape () =
  let r, s, trace = traced_solve 1 [ [ (0, true) ]; [ (0, false) ] ] in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  let cert = unsat_cert "drup" s trace in
  (match V.to_drup cert with
  | None -> Alcotest.fail "refutation must print as DRUP"
  | Some drup ->
      let lines = String.split_on_char '\n' (String.trim drup) in
      Alcotest.(check bool) "ends with empty clause" true
        (List.nth lines (List.length lines - 1) = "0");
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "line %S zero-terminated" line)
            true
            (String.length line >= 1
            && String.sub line (String.length line - 1) 1 = "0"))
        lines);
  let dimacs = V.to_dimacs cert in
  let parsed = Sat.Dimacs.of_string dimacs in
  Alcotest.(check int) "dimacs var count round-trips"
    (match cert with V.Refutation { n_vars; _ } -> n_vars | V.Model { n_vars; _ } -> n_vars)
    parsed.Sat.Dimacs.n_vars

let test_set_max_learnts_validation () =
  let s = S.create () in
  Alcotest.check_raises "zero rejected" (Invalid_argument "Solver.set_max_learnts")
    (fun () -> S.set_max_learnts s 0)

(* ---------- smtlite certified solving ---------- *)

module T = Smtlite.Term

let test_smtlite_check_certified () =
  let x = T.var ~lo:0 ~hi:10 ~name:"x" in
  let sat_f = T.eq (T.of_var x) (T.const 7) in
  (match Smtlite.Solve.check_certified sat_f with
  | Smtlite.Solve.Sat model, Some cert ->
      Alcotest.(check int) "x = 7" 7 (List.assoc x model);
      check_ok "sat formula" (V.check cert)
  | _ -> Alcotest.fail "expected certified Sat");
  let unsat_f =
    T.and_ [ T.ge (T.of_var x) (T.const 4); T.le (T.of_var x) (T.const 2) ]
  in
  match Smtlite.Solve.check_certified unsat_f with
  | Smtlite.Solve.Unsat, Some cert -> check_ok "unsat formula" (V.check cert)
  | _ -> Alcotest.fail "expected certified Unsat"

let test_smtlite_session_certified () =
  (* Warm session: assumption probes then a permanent assertion; every
     decided answer certifies against the growing trace. *)
  let x = T.var ~lo:0 ~hi:15 ~name:"xs" in
  let trace = P.create () in
  let session =
    Smtlite.Solve.open_session ~trace (T.ge (T.of_var x) (T.const 3))
  in
  let a_low = Smtlite.Solve.assume session (T.le (T.of_var x) (T.const 1)) in
  (match Smtlite.Solve.solve_certified ~assumptions:[ a_low ] session with
  | Smtlite.Solve.Unsat, Some cert -> check_ok "x<=1 probe" (V.check cert)
  | _ -> Alcotest.fail "expected certified Unsat under x<=1");
  (match Smtlite.Solve.solve_certified session with
  | Smtlite.Solve.Sat _, Some cert -> check_ok "unconstrained" (V.check cert)
  | _ -> Alcotest.fail "expected certified Sat");
  Smtlite.Solve.assert_also session (T.le (T.of_var x) (T.const 2));
  match Smtlite.Solve.solve_certified session with
  | Smtlite.Solve.Unsat, Some cert -> check_ok "final unsat" (V.check cert)
  | _ -> Alcotest.fail "expected certified Unsat"

(* ---------- backend / tolerance certified verdicts ---------- *)

let small_qnet () =
  Nn.Qnet.create
    [|
      {
        Nn.Qnet.weights = [| [| 31; -22 |]; [| -13; 41 |]; [| 17; 9 |]; [| -25; 14 |] |];
        bias = [| 55; -31; 12; -7 |];
        act = Nn.Qnet.Relu;
      };
      {
        Nn.Qnet.weights = [| [| 21; -33; 11; -9 |]; [| -20; 31; -12; 10 |] |];
        bias = [| 13; 0 |];
        act = Nn.Qnet.Identity;
      };
    |]

let test_backend_certified () =
  let net = small_qnet () in
  (* At input [50;50] the minimal flip delta is 13, so the robust case at
     12 needs real search (hundreds of lemmas) rather than collapsing to
     load-time unit propagation. *)
  let input = [| 50; 50 |] in
  let label = Nn.Qnet.predict net input in
  let robust_delta = 12 and flip_delta = 13 in
  let check_at delta =
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
    let cv = Fannet.Backend.certified_exists_flip net spec ~input ~label in
    check_ok
      (Printf.sprintf "backend certified at %d" delta)
      (Fannet.Backend.check_certified net spec ~input ~label cv);
    Alcotest.(check bool)
      (Printf.sprintf "agrees with bnb at %d" delta)
      true
      (Fannet.Backend.agree cv.Fannet.Backend.cv_verdict
         (Fannet.Backend.exists_flip Fannet.Backend.Bnb net spec ~input ~label));
    cv
  in
  let cv_r = check_at robust_delta in
  (match cv_r.Fannet.Backend.cv_verdict with
  | Fannet.Backend.Robust -> ()
  | v -> Alcotest.failf "expected robust, got %s" (Fannet.Backend.verdict_to_string v));
  let cv_f = check_at flip_delta in
  (match cv_f.Fannet.Backend.cv_verdict with
  | Fannet.Backend.Flip _ -> ()
  | v -> Alcotest.failf "expected flip, got %s" (Fannet.Backend.verdict_to_string v));
  (* A corrupted certificate must be rejected by check_certified. *)
  match cv_r.Fannet.Backend.cv_cert with
  | Some (V.Refutation ({ proof; _ } as rf)) ->
      (* Truncate the derivation to its first half: the surviving prefix
         never reaches the contradiction, which is what a solver bug that
         stops logging midway would look like. *)
      let len = List.length proof in
      Alcotest.(check bool) "proof is nontrivial" true (len >= 4);
      let corrupt =
        V.Refutation
          { rf with proof = List.filteri (fun i _ -> 2 * i < len) proof }
      in
      let spec = Fannet.Noise.symmetric ~delta:robust_delta ~bias_noise:false in
      check_rejected "corrupted backend certificate"
        (Fannet.Backend.check_certified net spec ~input ~label
           { cv_r with Fannet.Backend.cv_cert = Some corrupt })
  | _ -> Alcotest.fail "robust verdict must carry a refutation"

let test_tolerance_certified_bracket () =
  let net = small_qnet () in
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let max_delta = 40 in
  let b =
    Fannet.Tolerance.certified_min_flip_delta net ~bias_noise:false ~max_delta
      ~input ~label
  in
  check_ok "bracket"
    (Fannet.Tolerance.check_certified_bracket net ~bias_noise:false b ~input ~label);
  let reference =
    Fannet.Tolerance.input_min_flip_delta Fannet.Backend.Bnb net ~bias_noise:false
      ~max_delta ~input ~label
  in
  Alcotest.(check bool) "agrees with bnb" true
    (b.Fannet.Tolerance.min_flip_delta = reference);
  (* Tamper with the bracket: shifting the flip delta breaks adjacency. *)
  match (b.Fannet.Tolerance.min_flip_delta, b.Fannet.Tolerance.flip_cert) with
  | Some m, Some (_, v, cert) ->
      let tampered =
        { b with Fannet.Tolerance.flip_cert = Some (m + 1, v, cert) }
      in
      check_rejected "tampered bracket"
        (Fannet.Tolerance.check_certified_bracket net ~bias_noise:false tampered
           ~input ~label)
  | _ -> Alcotest.fail "expected a flip end on this net"

(* ---------- dimacs parser tolerance (satellite) ---------- *)

let test_dimacs_satlib_dialect () =
  let text =
    "c header comment\n\np cnf 3 2\nc mid comment\n\n1 -2 0\n\t2  3 0\r\n%\n0\n\n"
  in
  let cnf = Sat.Dimacs.of_string text in
  Alcotest.(check int) "vars" 3 cnf.Sat.Dimacs.n_vars;
  Alcotest.(check bool) "clauses" true
    (cnf.Sat.Dimacs.clauses = [ [ 1; -2 ]; [ 2; 3 ] ])

let test_dimacs_multiline_clause_and_missing_zero () =
  let cnf = Sat.Dimacs.of_string "p cnf 4 2\n1 2\n-3 0\n4 -1\n" in
  Alcotest.(check bool) "clauses" true
    (cnf.Sat.Dimacs.clauses = [ [ 1; 2; -3 ]; [ 4; -1 ] ])

let test_dimacs_bad_token_still_fails () =
  Alcotest.(check bool) "garbage rejected" true
    (match Sat.Dimacs.of_string "p cnf 1 1\nfoo 0\n" with
    | exception Failure _ -> true
    | _ -> false)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs to_string/of_string roundtrip" ~count:200
    random_cnf_arbitrary (fun (n_vars, clauses) ->
      let cnf =
        {
          Sat.Dimacs.n_vars;
          clauses =
            List.map
              (List.map (fun (v, sign) -> if sign then v + 1 else -(v + 1)))
              clauses;
        }
      in
      let back = Sat.Dimacs.of_string (Sat.Dimacs.to_string cnf) in
      back.Sat.Dimacs.n_vars = n_vars
      && back.Sat.Dimacs.clauses = cnf.Sat.Dimacs.clauses)

let () =
  Alcotest.run "cert"
    [
      ( "solver-proofs",
        [
          Alcotest.test_case "php(6,5) proof checks" `Quick test_php_proof_checks;
          Alcotest.test_case "level-0 contradiction" `Quick test_trivial_unsat_proof;
          Alcotest.test_case "sat model certificate" `Quick test_sat_model_certificate;
          Alcotest.test_case "assumption proofs" `Quick test_assumptions_proof;
          Alcotest.test_case "deletion + restarts" `Quick
            test_deletion_and_restarts_stay_valid;
          Alcotest.test_case "incremental session" `Quick
            test_incremental_session_certificates;
          Alcotest.test_case "set_max_learnts validation" `Quick
            test_set_max_learnts_validation;
        ] );
      ( "solver-proofs-property",
        [
          QCheck_alcotest.to_alcotest prop_random_cnf_certifies;
          QCheck_alcotest.to_alcotest prop_random_unsat_under_assumptions_certifies;
          QCheck_alcotest.to_alcotest prop_checker_matches_enumeration;
          QCheck_alcotest.to_alcotest prop_mutated_proofs_stay_sound;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "dropped learnt literal" `Quick
            test_mutation_dropped_literal;
          Alcotest.test_case "removed lemma" `Quick test_mutation_removed_lemma;
          Alcotest.test_case "non-RUP lemma" `Quick test_mutation_non_rup_lemma;
          Alcotest.test_case "delete then use" `Quick test_mutation_delete_then_use;
          Alcotest.test_case "unknown deletion" `Quick test_mutation_unknown_deletion;
          Alcotest.test_case "bad literals" `Quick test_mutation_out_of_range_literal;
          Alcotest.test_case "incomplete proof" `Quick test_mutation_incomplete_proof;
          Alcotest.test_case "corrupted model" `Quick test_mutation_model_flip;
          Alcotest.test_case "oversized n_vars" `Quick test_oversized_n_vars;
          Alcotest.test_case "deletion index" `Quick test_deletion_index;
        ] );
      ( "formats",
        [
          Alcotest.test_case "drup output shape" `Quick test_drup_output_shape;
          Alcotest.test_case "satlib dialect" `Quick test_dimacs_satlib_dialect;
          Alcotest.test_case "multiline clause" `Quick
            test_dimacs_multiline_clause_and_missing_zero;
          Alcotest.test_case "bad token rejected" `Quick
            test_dimacs_bad_token_still_fails;
          QCheck_alcotest.to_alcotest prop_dimacs_roundtrip;
        ] );
      ( "smtlite",
        [
          Alcotest.test_case "check_certified" `Quick test_smtlite_check_certified;
          Alcotest.test_case "session certified" `Quick
            test_smtlite_session_certified;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "backend certified" `Slow test_backend_certified;
          Alcotest.test_case "tolerance bracket" `Slow
            test_tolerance_certified_bracket;
        ] );
    ]
