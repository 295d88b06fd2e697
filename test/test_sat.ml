(* SAT solver tests: hand-written instances, pigeonhole, random CNFs
   cross-checked against a brute-force enumerator, and incremental use. *)

let lit v sign = Sat.Lit.make v sign

(* ---------- brute force reference ---------- *)

let brute_force_sat n_vars clauses =
  (* clauses: (var, sign) list list *)
  let rec try_assignment assignment v =
    if v = n_vars then
      List.for_all
        (List.exists (fun (var, sign) -> assignment.(var) = sign))
        clauses
    else begin
      assignment.(v) <- true;
      try_assignment assignment (v + 1)
      ||
      (assignment.(v) <- false;
       try_assignment assignment (v + 1))
    end
  in
  try_assignment (Array.make n_vars false) 0

let solver_of_clauses n_vars clauses =
  let s = Sat.Solver.create () in
  let vars = Array.init n_vars (fun _ -> Sat.Solver.new_var s) in
  List.iter
    (fun clause ->
      Sat.Solver.add_clause s
        (List.map (fun (v, sign) -> Sat.Lit.make vars.(v) sign) clause))
    clauses;
  s

let model_satisfies model clauses =
  List.for_all
    (List.exists (fun (var, sign) -> model.(var) = sign))
    clauses

(* ---------- unit tests ---------- *)

let test_empty_formula () =
  let s = Sat.Solver.create () in
  Alcotest.(check bool) "empty formula sat" true (Sat.Solver.solve s = Sat)

let test_single_unit () =
  let s = Sat.Solver.create () in
  let v = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit v true ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat);
  Alcotest.(check bool) "v is true" true (Sat.Solver.value s (lit v true))

let test_contradiction () =
  let s = Sat.Solver.create () in
  let v = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit v true ];
  Sat.Solver.add_clause s [ lit v false ];
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Unsat);
  Alcotest.(check bool) "solver flagged" false (Sat.Solver.okay s)

let test_empty_clause () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Unsat)

let test_tautology_dropped () =
  let s = Sat.Solver.create () in
  let v = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit v true; lit v false ];
  Alcotest.(check int) "no clause stored" 0 (Sat.Solver.nclauses s);
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat)

let test_implication_chain () =
  (* x0 -> x1 -> ... -> x19, x0 forced true: all true. *)
  let s = Sat.Solver.create () in
  let vars = Array.init 20 (fun _ -> Sat.Solver.new_var s) in
  for i = 0 to 18 do
    Sat.Solver.add_clause s [ lit vars.(i) false; lit vars.(i + 1) true ]
  done;
  Sat.Solver.add_clause s [ lit vars.(0) true ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "chain var true" true (Sat.Solver.value s (lit v true)))
    vars

let test_xor_chain_unsat () =
  (* x0 xor x1, x1 xor x2, x0 xor x2 with odd parity constraint: encode
     x0=1, x0 xor x1 = 1, x1 xor x2 = 1, x0 xor x2 = 1 -> unsat. *)
  let s = Sat.Solver.create () in
  let x0 = Sat.Solver.new_var s in
  let x1 = Sat.Solver.new_var s in
  let x2 = Sat.Solver.new_var s in
  let xor_true a b =
    Sat.Solver.add_clause s [ lit a true; lit b true ];
    Sat.Solver.add_clause s [ lit a false; lit b false ]
  in
  xor_true x0 x1;
  xor_true x1 x2;
  xor_true x0 x2;
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Unsat)

let pigeonhole_clauses ~pigeons ~holes =
  (* Variable p*holes + h means pigeon p sits in hole h. *)
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

let test_pigeonhole_unsat () =
  let n, clauses = pigeonhole_clauses ~pigeons:6 ~holes:5 in
  let s = solver_of_clauses n clauses in
  Alcotest.(check bool) "php(6,5) unsat" true (Sat.Solver.solve s = Unsat)

let test_pigeonhole_sat () =
  let n, clauses = pigeonhole_clauses ~pigeons:5 ~holes:5 in
  let s = solver_of_clauses n clauses in
  Alcotest.(check bool) "php(5,5) sat" true (Sat.Solver.solve s = Sat);
  Alcotest.(check bool) "model ok" true
    (model_satisfies (Sat.Solver.model s) clauses)

let test_assumptions () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  let b = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit a false; lit b true ];
  (* a -> b *)
  Alcotest.(check bool) "sat under a" true
    (Sat.Solver.solve ~assumptions:[ lit a true ] s = Sat);
  Alcotest.(check bool) "b forced" true (Sat.Solver.value s (lit b true));
  Alcotest.(check bool) "unsat under a & !b" true
    (Sat.Solver.solve ~assumptions:[ lit a true; lit b false ] s = Unsat);
  (* The solver must remain usable after an assumption-unsat answer. *)
  Alcotest.(check bool) "still sat without assumptions" true
    (Sat.Solver.solve s = Sat)

let test_incremental_blocking () =
  (* Enumerate all 4 models of a 2-variable free formula by blocking. *)
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  let b = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit a true; lit a false ];
  (* tautology dropped; vars still free *)
  let count = ref 0 in
  let continue = ref true in
  while !continue && !count <= 4 do
    match Sat.Solver.solve s with
    | Sat ->
        incr count;
        let block =
          List.map
            (fun v -> Sat.Lit.make v (not (Sat.Solver.value s (lit v true))))
            [ a; b ]
        in
        Sat.Solver.add_clause s block
    | Unsat -> continue := false
    | Unknown -> Alcotest.fail "unexpected unknown"
  done;
  Alcotest.(check int) "4 models" 4 !count

let test_max_conflicts_unknown () =
  (* A hard instance with a 1-conflict budget should give Unknown. *)
  let n, clauses = pigeonhole_clauses ~pigeons:8 ~holes:7 in
  let s = solver_of_clauses n clauses in
  let r = Sat.Solver.solve ~max_conflicts:1 s in
  Alcotest.(check bool) "unknown or unsat" true (r = Unknown || r = Unsat)

(* ---------- random CNF vs brute force ---------- *)

let random_cnf_gen =
  let open QCheck.Gen in
  let* n_vars = int_range 1 8 in
  let* n_clauses = int_range 1 30 in
  let clause =
    let* len = int_range 1 4 in
    list_size (return len)
      (pair (int_range 0 (n_vars - 1)) QCheck.Gen.bool)
  in
  let* clauses = list_size (return n_clauses) clause in
  return (n_vars, clauses)

let random_cnf_arbitrary =
  QCheck.make ~print:(fun (n, cs) ->
      Printf.sprintf "%d vars, %d clauses" n (List.length cs))
    random_cnf_gen

let prop_matches_brute_force =
  QCheck.Test.make ~name:"solver agrees with brute force" ~count:300
    random_cnf_arbitrary (fun (n_vars, clauses) ->
      let expected = brute_force_sat n_vars clauses in
      let s = solver_of_clauses n_vars clauses in
      match Sat.Solver.solve s with
      | Sat -> expected && model_satisfies (Sat.Solver.model s) clauses
      | Unsat -> not expected
      | Unknown -> false)

let prop_model_always_satisfies =
  QCheck.Test.make ~name:"sat models satisfy all clauses" ~count:300
    random_cnf_arbitrary (fun (n_vars, clauses) ->
      let s = solver_of_clauses n_vars clauses in
      match Sat.Solver.solve s with
      | Sat -> model_satisfies (Sat.Solver.model s) clauses
      | Unsat | Unknown -> true)

let prop_assumption_consistency =
  (* If F is sat with model m, then F is sat under the assumptions m. *)
  QCheck.Test.make ~name:"re-solving under model assumptions stays sat"
    ~count:150 random_cnf_arbitrary (fun (n_vars, clauses) ->
      let s = solver_of_clauses n_vars clauses in
      match Sat.Solver.solve s with
      | Sat ->
          let m = Sat.Solver.model s in
          let assumptions = List.init n_vars (fun v -> Sat.Lit.make v m.(v)) in
          Sat.Solver.solve ~assumptions s = Sat
      | Unsat | Unknown -> true)

let prop_incremental_assumptions =
  (* One solver answers a sequence of assumption sets; each answer must
     match brute force on the formula with those assumptions as units, so
     nothing learnt under one set leaks into the next. *)
  let gen =
    QCheck.Gen.(
      let* n_vars, clauses = random_cnf_gen in
      let assumption = pair (int_range 0 (n_vars - 1)) bool in
      let* sets = list_size (int_range 1 5) (list_size (int_range 0 3) assumption) in
      return (n_vars, clauses, sets))
  in
  QCheck.Test.make ~name:"assumption sequence matches brute force" ~count:150
    (QCheck.make gen) (fun (n_vars, clauses, sets) ->
      let s = solver_of_clauses n_vars clauses in
      List.for_all
        (fun set ->
          let assumptions = List.map (fun (v, sign) -> lit v sign) set in
          let expected =
            brute_force_sat n_vars (List.map (fun a -> [ a ]) set @ clauses)
          in
          match Sat.Solver.solve ~assumptions s with
          | Sat ->
              let m = Sat.Solver.model s in
              expected && model_satisfies m clauses
              && List.for_all (fun (v, sign) -> m.(v) = sign) set
          | Unsat -> not expected
          | Unknown -> false)
        sets)

(* ---------- priority branching ---------- *)

let test_priority_branching_decides_inputs_first () =
  (* An implication x0 -> x1 -> x2; with priority on x0 and positive saved
     phase forced via clauses, the solver still answers correctly. Then
     check that priority does not change satisfiability on a random-ish
     instance. *)
  let s = Sat.Solver.create () in
  let vars = Array.init 10 (fun _ -> Sat.Solver.new_var s) in
  for i = 0 to 8 do
    Sat.Solver.add_clause s [ lit vars.(i) false; lit vars.(i + 1) true ]
  done;
  Sat.Solver.set_priority s (Array.to_list vars);
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat);
  Sat.Solver.add_clause s [ lit vars.(0) true ];
  Sat.Solver.add_clause s [ lit vars.(9) false ];
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Unsat)

let test_priority_rejects_unknown_var () =
  let s = Sat.Solver.create () in
  Alcotest.check_raises "bad var" (Invalid_argument "Solver.set_priority")
    (fun () -> Sat.Solver.set_priority s [ 3 ])

let prop_priority_preserves_answers =
  QCheck.Test.make ~name:"priority branching preserves sat answers" ~count:150
    random_cnf_arbitrary (fun (n_vars, clauses) ->
      let reference =
        let s = solver_of_clauses n_vars clauses in
        Sat.Solver.solve s
      in
      let with_priority =
        let s = solver_of_clauses n_vars clauses in
        Sat.Solver.set_priority s (List.init n_vars Fun.id);
        Sat.Solver.solve s
      in
      reference = with_priority)

(* ---------- veca / lit internals ---------- *)

let test_veca_basics () =
  let v = Sat.Veca.create () in
  Alcotest.(check int) "empty" 0 (Sat.Veca.length v);
  for i = 1 to 100 do
    Sat.Veca.push v i
  done;
  Alcotest.(check int) "length" 100 (Sat.Veca.length v);
  Alcotest.(check int) "get" 42 (Sat.Veca.get v 41);
  Alcotest.(check int) "pop" 100 (Sat.Veca.pop v);
  Alcotest.(check int) "after pop" 99 (Sat.Veca.length v);
  Sat.Veca.set v 0 7;
  Alcotest.(check int) "set" 7 (Sat.Veca.get v 0);
  Sat.Veca.shrink v 10;
  Alcotest.(check int) "shrunk" 10 (Sat.Veca.length v);
  Sat.Veca.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check bool) "filtered" true
    (List.for_all (fun x -> x mod 2 = 0) (Sat.Veca.to_list v));
  Sat.Veca.clear v;
  Alcotest.(check int) "cleared" 0 (Sat.Veca.length v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Veca.pop: empty")
    (fun () -> ignore (Sat.Veca.pop v))

let test_veca_sort_and_iter () =
  let v = Sat.Veca.of_list [ 3; 1; 2 ] in
  Sat.Veca.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Sat.Veca.to_list v);
  let acc = ref 0 in
  Sat.Veca.iter (fun x -> acc := !acc + x) v;
  Alcotest.(check int) "iter sum" 6 !acc;
  Alcotest.(check bool) "exists" true (Sat.Veca.exists (fun x -> x = 2) v)

let test_lit_encoding () =
  let l = Sat.Lit.make 5 true in
  Alcotest.(check int) "var" 5 (Sat.Lit.var l);
  Alcotest.(check bool) "pos" true (Sat.Lit.is_pos l);
  Alcotest.(check bool) "neg flips" false (Sat.Lit.is_pos (Sat.Lit.neg l));
  Alcotest.(check int) "neg same var" 5 (Sat.Lit.var (Sat.Lit.neg l));
  Alcotest.(check bool) "double neg" true (Sat.Lit.equal l (Sat.Lit.neg (Sat.Lit.neg l)));
  Alcotest.(check int) "dimacs pos" 6 (Sat.Lit.to_dimacs l);
  Alcotest.(check int) "dimacs neg" (-6) (Sat.Lit.to_dimacs (Sat.Lit.neg l));
  Alcotest.(check bool) "dimacs roundtrip" true
    (Sat.Lit.equal l (Sat.Lit.of_dimacs 6));
  Alcotest.check_raises "zero" (Invalid_argument "Lit.of_dimacs: zero")
    (fun () -> ignore (Sat.Lit.of_dimacs 0))

(* ---------- search pin ---------- *)

(* A fixed set of traced solves whose whole observable behaviour — every
   proof event, every model and the search counters — is folded into one
   digest. Any moved decision, learnt clause or deletion changes it. *)

let lcg seed =
  let x = ref seed in
  fun bound ->
    x := ((!x * 1103515245) + 12345) land 0x7fffffff;
    (!x lsr 8) mod bound

let random_3sat ~seed ~vars ~clauses =
  let next = lcg seed in
  ( vars,
    List.init clauses (fun _ ->
        List.init 3 (fun _ ->
            let v = next vars in
            (v, next 2 = 0))) )

let search_trace () =
  let b = Buffer.create 65536 in
  let lits ls = List.iter (fun l -> Printf.bprintf b " %d" (Sat.Lit.to_dimacs l)) ls in
  let traced s =
    Sat.Solver.set_proof_sink s
      (Some
         (fun step ->
           (match step with
           | Sat.Solver.P_input ls -> Buffer.add_char b 'i'; lits ls
           | P_learn ls -> Buffer.add_char b 'l'; lits ls
           | P_delete ls -> Buffer.add_char b 'd'; lits ls
           | P_empty ls -> Buffer.add_char b 'e'; lits ls);
           Buffer.add_char b '\n'));
    s
  in
  let build n clauses =
    let s = traced (Sat.Solver.create ()) in
    for _ = 1 to n do
      ignore (Sat.Solver.new_var s)
    done;
    List.iter
      (fun c ->
        Sat.Solver.add_clause s (List.map (fun (v, sign) -> lit v sign) c))
      clauses;
    s
  in
  let results = ref [] in
  let solve ?assumptions s =
    let r = Sat.Solver.solve ?assumptions s in
    results := r :: !results;
    (match r with
    | Sat ->
        Buffer.add_string b "model ";
        Array.iter (fun v -> Buffer.add_char b (if v then '1' else '0'))
          (Sat.Solver.model s)
    | Unsat -> Buffer.add_string b "unsat"
    | Unknown -> Buffer.add_string b "unknown");
    let st = Sat.Solver.stats s in
    Printf.bprintf b "\nstats %d %d %d %d %d\n" st.conflicts st.decisions
      st.propagations st.restarts st.learnt_clauses;
    r
  in
  (* Pigeonhole with a tiny learnt limit: many deletions. *)
  let n, clauses = pigeonhole_clauses ~pigeons:7 ~holes:6 in
  let s = build n clauses in
  Sat.Solver.set_max_learnts s 20;
  ignore (solve s);
  (* Random 3-SAT on both sides of the threshold, then assumptions and
     incremental blocking on the satisfiable instances. *)
  List.iter
    (fun (seed, ratio) ->
      let n, clauses = random_3sat ~seed ~vars:100 ~clauses:(100 * ratio / 10) in
      let s = build n clauses in
      Sat.Solver.set_max_learnts s 40;
      if solve s = Sat then begin
        for k = 0 to 5 do
          ignore (solve ~assumptions:[ lit k (k mod 2 = 0); lit (k + 10) false ] s)
        done;
        let rec block i =
          if i < 12 && solve s = Sat then begin
            Sat.Solver.add_clause s
              (List.init 20 (fun v -> lit v (not (Sat.Solver.value s (lit v true)))));
            block (i + 1)
          end
        in
        block 0
      end)
    [ (1, 40); (2, 42); (3, 43); (4, 44); (5, 50); (6, 60) ];
  (Buffer.contents b, !results)

let test_search_pinned () =
  let trace, results = search_trace () in
  Alcotest.(check bool) "the set has Sat answers" true (List.mem Sat.Solver.Sat results);
  Alcotest.(check bool) "the set has Unsat answers" true
    (List.mem Sat.Solver.Unsat results);
  Alcotest.(check bool) "the set deletes clauses" true
    (List.exists
       (fun line -> String.length line > 0 && line.[0] = 'd')
       (String.split_on_char '\n' trace));
  Alcotest.(check string) "search digest" "b8ff4ae620add33697d64a7e8598c0e1"
    (Digest.to_hex (Digest.string trace))

(* Learnt clauses come and go over many [reduce_db] rounds; reclaiming
   the deleted ones keeps the solver within a fixed multiple of its size
   with just the CNF loaded. *)
let test_memory_bounded () =
  let n, clauses = pigeonhole_clauses ~pigeons:10 ~holes:9 in
  let s = solver_of_clauses n clauses in
  let loaded = Obj.reachable_words (Obj.repr s) in
  let peak = ref loaded in
  for _ = 1 to 100 do
    Sat.Solver.set_max_learnts s 50;
    ignore (Sat.Solver.solve ~max_conflicts:200 s);
    peak := max !peak (Obj.reachable_words (Obj.repr s))
  done;
  Alcotest.(check bool) "many conflicts" true ((Sat.Solver.stats s).conflicts >= 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "peak %d words within 8x the loaded %d" !peak loaded)
    true
    (!peak <= 8 * loaded)

(* ---------- dimacs ---------- *)

let test_dimacs_roundtrip () =
  let cnf = { Sat.Dimacs.n_vars = 3; clauses = [ [ 1; -2 ]; [ 2; 3 ]; [ -1 ] ] } in
  let text = Sat.Dimacs.to_string cnf in
  let back = Sat.Dimacs.of_string text in
  Alcotest.(check int) "vars" cnf.Sat.Dimacs.n_vars back.Sat.Dimacs.n_vars;
  Alcotest.(check bool) "clauses" true
    (cnf.Sat.Dimacs.clauses = back.Sat.Dimacs.clauses)

let test_dimacs_solve () =
  let cnf =
    Sat.Dimacs.of_string "c comment\np cnf 2 2\n1 2 0\n-1 0\n"
  in
  let s = Sat.Solver.create () in
  Sat.Dimacs.load_into s cnf;
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat);
  Alcotest.(check bool) "x2 true" true (Sat.Solver.value s (lit 1 true))

let () =
  Alcotest.run "sat"
    [
      ( "solver-unit",
        [
          Alcotest.test_case "empty formula" `Quick test_empty_formula;
          Alcotest.test_case "single unit" `Quick test_single_unit;
          Alcotest.test_case "contradiction" `Quick test_contradiction;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "xor chain unsat" `Quick test_xor_chain_unsat;
          Alcotest.test_case "pigeonhole 6/5 unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "pigeonhole 5/5 sat" `Quick test_pigeonhole_sat;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental blocking" `Quick test_incremental_blocking;
          Alcotest.test_case "conflict budget" `Quick test_max_conflicts_unknown;
          Alcotest.test_case "search pinned" `Quick test_search_pinned;
          Alcotest.test_case "memory bounded" `Quick test_memory_bounded;
        ] );
      ( "solver-property",
        [
          QCheck_alcotest.to_alcotest prop_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_model_always_satisfies;
          QCheck_alcotest.to_alcotest prop_assumption_consistency;
        ] );
      ( "solver-incremental",
        [ QCheck_alcotest.to_alcotest prop_incremental_assumptions ] );
      ( "priority",
        [
          Alcotest.test_case "inputs-first branching" `Quick
            test_priority_branching_decides_inputs_first;
          Alcotest.test_case "rejects unknown var" `Quick test_priority_rejects_unknown_var;
          QCheck_alcotest.to_alcotest prop_priority_preserves_answers;
        ] );
      ( "internals",
        [
          Alcotest.test_case "veca basics" `Quick test_veca_basics;
          Alcotest.test_case "veca sort/iter" `Quick test_veca_sort_and_iter;
          Alcotest.test_case "lit encoding" `Quick test_lit_encoding;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "parse and solve" `Quick test_dimacs_solve;
        ] );
    ]
