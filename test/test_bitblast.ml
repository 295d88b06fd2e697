(* Tests for the bit-blasting layer: gate semantics and bit-vector
   arithmetic checked against native integer arithmetic. *)

module Cnf = Bitblast.Cnf
module Bv = Bitblast.Bv

let solve_and_read b lits =
  match Sat.Solver.solve (Cnf.solver b) with
  | Sat.Solver.Sat -> Some (List.map (Cnf.lit_value b) lits)
  | Sat.Solver.Unsat -> None
  | Sat.Solver.Unknown -> Alcotest.fail "unexpected unknown"

(* Force two fresh literals to specific values and check a gate output. *)
let check_gate name make expected =
  List.iter
    (fun (va, vb) ->
      let b = Cnf.create () in
      let a = Cnf.fresh b and c = Cnf.fresh b in
      let o = make b a c in
      Cnf.assert_lit b (if va then a else Cnf.g_not a);
      Cnf.assert_lit b (if vb then c else Cnf.g_not c);
      match solve_and_read b [ o ] with
      | Some [ vo ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %b %b" name va vb)
            (expected va vb) vo
      | _ -> Alcotest.fail "unsat gate env")
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_gate_and () = check_gate "and" (fun b x y -> Cnf.g_and b x y) ( && )

let test_gate_or () = check_gate "or" (fun b x y -> Cnf.g_or b x y) ( || )

let test_gate_xor () = check_gate "xor" (fun b x y -> Cnf.g_xor b x y) ( <> )

let test_gate_iff () = check_gate "iff" (fun b x y -> Cnf.g_iff b x y) ( = )

let test_gate_implies () =
  check_gate "implies" (fun b x y -> Cnf.g_implies b x y) (fun x y -> (not x) || y)

let test_gate_constant_folding () =
  let b = Cnf.create () in
  let a = Cnf.fresh b in
  Alcotest.(check bool) "and false" true
    (Sat.Lit.equal (Cnf.g_and b a (Cnf.bfalse b)) (Cnf.bfalse b));
  Alcotest.(check bool) "and true" true
    (Sat.Lit.equal (Cnf.g_and b a (Cnf.btrue b)) a);
  Alcotest.(check bool) "xor self" true
    (Sat.Lit.equal (Cnf.g_xor b a a) (Cnf.bfalse b));
  Alcotest.(check bool) "xor neg self" true
    (Sat.Lit.equal (Cnf.g_xor b a (Cnf.g_not a)) (Cnf.btrue b));
  Alcotest.(check bool) "mux same" true
    (Sat.Lit.equal (Cnf.g_mux b ~sel:(Cnf.fresh b) ~if_true:a ~if_false:a) a)

let test_mux_semantics () =
  List.iter
    (fun (sel, x, y) ->
      let b = Cnf.create () in
      let s = Cnf.fresh b and a = Cnf.fresh b and c = Cnf.fresh b in
      let o = Cnf.g_mux b ~sel:s ~if_true:a ~if_false:c in
      Cnf.assert_lit b (if sel then s else Cnf.g_not s);
      Cnf.assert_lit b (if x then a else Cnf.g_not a);
      Cnf.assert_lit b (if y then c else Cnf.g_not c);
      match solve_and_read b [ o ] with
      | Some [ vo ] ->
          Alcotest.(check bool) "mux" (if sel then x else y) vo
      | _ -> Alcotest.fail "unsat mux env")
    [ (true, true, false); (true, false, true); (false, true, false); (false, false, true) ]

(* ---------- bitvector constants and arithmetic ---------- *)

let eval_const_expr f =
  (* Build an expression over constants and decode it from the model. *)
  let b = Cnf.create () in
  let bv = f b in
  match Sat.Solver.solve (Cnf.solver b) with
  | Sat.Solver.Sat -> Bv.to_int b bv
  | Sat.Solver.Unsat | Sat.Solver.Unknown -> Alcotest.fail "const expr unsat"

let test_const_roundtrip () =
  List.iter
    (fun v ->
      let got = eval_const_expr (fun b -> Bv.const b ~width:9 v) in
      Alcotest.(check int) (Printf.sprintf "const %d" v) v got)
    [ 0; 1; -1; 255; -256; 100; -100 ]

let test_const_width_check () =
  let b = Cnf.create () in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Bv.const: 128 does not fit 8 bits") (fun () ->
      ignore (Bv.const b ~width:8 128))

let test_add_sub_neg_consts () =
  let w = 12 in
  List.iter
    (fun (x, y) ->
      let sum = eval_const_expr (fun b -> Bv.add b (Bv.const b ~width:w x) (Bv.const b ~width:w y)) in
      Alcotest.(check int) (Printf.sprintf "%d+%d" x y) (x + y) sum;
      let diff = eval_const_expr (fun b -> Bv.sub b (Bv.const b ~width:w x) (Bv.const b ~width:w y)) in
      Alcotest.(check int) (Printf.sprintf "%d-%d" x y) (x - y) diff)
    [ (5, 7); (-5, 7); (100, -100); (-3, -4); (0, 0) ]

let test_mul_const () =
  let w = 20 in
  List.iter
    (fun (c, x) ->
      let got = eval_const_expr (fun b -> Bv.mul_const b (Bv.const b ~width:w x) c) in
      Alcotest.(check int) (Printf.sprintf "%d*%d" c x) (c * x) got)
    [ (3, 7); (-3, 7); (3, -7); (0, 42); (1, -9); (-1, -9); (13, 21); (100, 50) ]

let test_sign_extend_preserves_value () =
  List.iter
    (fun v ->
      let got =
        eval_const_expr (fun b -> Bv.sign_extend (Bv.const b ~width:6 v) 14)
      in
      Alcotest.(check int) (Printf.sprintf "extend %d" v) v got)
    [ 0; 31; -32; -1; 7 ]

let test_relu_smax () =
  List.iter
    (fun v ->
      let got = eval_const_expr (fun b -> Bv.relu b (Bv.const b ~width:10 v)) in
      Alcotest.(check int) (Printf.sprintf "relu %d" v) (max 0 v) got)
    [ 5; -5; 0; 255; -256 ];
  List.iter
    (fun (x, y) ->
      let got =
        eval_const_expr (fun b ->
            Bv.smax b (Bv.const b ~width:10 x) (Bv.const b ~width:10 y))
      in
      Alcotest.(check int) (Printf.sprintf "max %d %d" x y) (max x y) got)
    [ (3, 9); (9, 3); (-3, -9); (-9, 3); (0, 0) ]

let check_cmp_lit b l expected label =
  match Sat.Solver.solve (Cnf.solver b) with
  | Sat.Solver.Sat -> Alcotest.(check bool) label expected (Cnf.lit_value b l)
  | Sat.Solver.Unsat | Sat.Solver.Unknown -> Alcotest.fail "cmp env unsat"

let test_comparisons () =
  List.iter
    (fun (x, y) ->
      let b = Cnf.create () in
      (* One extra bit so the difference fits, per the documented contract. *)
      let bx = Bv.const b ~width:12 x and by = Bv.const b ~width:12 y in
      check_cmp_lit b (Bv.slt b bx by) (x < y) (Printf.sprintf "%d<%d" x y);
      let b2 = Cnf.create () in
      let bx = Bv.const b2 ~width:12 x and by = Bv.const b2 ~width:12 y in
      check_cmp_lit b2 (Bv.sle b2 bx by) (x <= y) (Printf.sprintf "%d<=%d" x y);
      let b3 = Cnf.create () in
      let bx = Bv.const b3 ~width:12 x and by = Bv.const b3 ~width:12 y in
      check_cmp_lit b3 (Bv.eq b3 bx by) (x = y) (Printf.sprintf "%d=%d" x y))
    [ (3, 9); (9, 3); (-7, 2); (2, -7); (-5, -5); (0, 0); (1000, -1000) ]

(* ---------- XOR refutation ---------- *)

(* An inconsistent parity system is refuted end-to-end: proof-traced,
   snapshotted as a lib/cert certificate, re-checked by the independent
   RUP checker, and exported to DIMACS/DRUP with the XOR gates' aux
   variables intact. *)
let test_xor_refutation_dimacs () =
  let trace = Cert.Proof.create () in
  let b = Cnf.create ~sink:(Cert.Proof.sink trace) () in
  let s = Cnf.solver b in
  let a1 = Cnf.fresh b and a2 = Cnf.fresh b and a3 = Cnf.fresh b in
  (* a1⊕a2, a2⊕a3 and a1⊕a3 all odd: the sum of the three parities is
     even, so the system is inconsistent. *)
  Cnf.assert_lit b (Cnf.g_xor b a1 a2);
  Cnf.assert_lit b (Cnf.g_xor b a2 a3);
  Cnf.assert_lit b (Cnf.g_xor b a1 a3);
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat | Sat.Solver.Unknown ->
      Alcotest.fail "inconsistent parity system must be unsat");
  match Cert.Verdict.of_trace_unsat ~n_vars:(Sat.Solver.nvars s) trace with
  | Error e -> Alcotest.failf "certificate snapshot failed: %s" e
  | Ok cert -> (
      (match Cert.Verdict.check cert with
      | Ok () -> ()
      | Error e -> Alcotest.failf "independent checker rejected: %s" e);
      let dimacs = Cert.Verdict.to_dimacs cert in
      Alcotest.(check bool) "dimacs header" true
        (String.length dimacs > 6 && String.sub dimacs 0 6 = "p cnf ");
      (* The XOR gates introduced Tseitin aux variables beyond a1..a3;
         they must survive into the exported formula. *)
      (match cert with
      | Cert.Verdict.Refutation { n_vars; cnf; _ } ->
          Alcotest.(check bool) "aux vars present" true (n_vars > 3);
          let max_var =
            List.fold_left
              (fun m c -> List.fold_left (fun m l -> max m (abs l)) m c)
              0 cnf
          in
          Alcotest.(check bool) "clauses mention aux vars" true (max_var > 3);
          Alcotest.(check bool) "vars within header bound" true (max_var <= n_vars)
      | Cert.Verdict.Model _ -> Alcotest.fail "expected a refutation");
      match Cert.Verdict.to_drup cert with
      | None -> Alcotest.fail "refutation must export a DRUP proof"
      | Some drup ->
          let last_nonempty =
            String.split_on_char '\n' drup
            |> List.filter (fun l -> String.trim l <> "")
            |> List.rev
            |> function
            | [] -> ""
            | l :: _ -> String.trim l
          in
          Alcotest.(check string) "drup ends with the empty clause" "0"
            last_nonempty)

(* Property: symbolic addition agrees with integer addition for fresh
   vectors constrained to chosen values. *)
let prop_symbolic_add =
  QCheck.Test.make ~name:"symbolic add matches int add" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_range (-500) 500) (int_range (-500) 500)))
    (fun (x, y) ->
      let b = Cnf.create () in
      let w = 13 in
      let vx = Bv.fresh b ~width:w and vy = Bv.fresh b ~width:w in
      Cnf.assert_lit b (Bv.eq b vx (Bv.const b ~width:w x));
      Cnf.assert_lit b (Bv.eq b vy (Bv.const b ~width:w y));
      let sum = Bv.add b vx vy in
      match Sat.Solver.solve (Cnf.solver b) with
      | Sat.Solver.Sat -> Bv.to_int b sum = x + y
      | Sat.Solver.Unsat | Sat.Solver.Unknown -> false)

let prop_symbolic_mul_const =
  QCheck.Test.make ~name:"symbolic mul_const matches int mul" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_range (-20) 20) (int_range (-200) 200)))
    (fun (c, x) ->
      let b = Cnf.create () in
      let w = 16 in
      let vx = Bv.fresh b ~width:w in
      Cnf.assert_lit b (Bv.eq b vx (Bv.const b ~width:w x));
      let product = Bv.mul_const b vx c in
      match Sat.Solver.solve (Cnf.solver b) with
      | Sat.Solver.Sat -> Bv.to_int b product = c * x
      | Sat.Solver.Unsat | Sat.Solver.Unknown -> false)

let () =
  Alcotest.run "bitblast"
    [
      ( "gates",
        [
          Alcotest.test_case "and" `Quick test_gate_and;
          Alcotest.test_case "or" `Quick test_gate_or;
          Alcotest.test_case "xor" `Quick test_gate_xor;
          Alcotest.test_case "iff" `Quick test_gate_iff;
          Alcotest.test_case "implies" `Quick test_gate_implies;
          Alcotest.test_case "constant folding" `Quick test_gate_constant_folding;
          Alcotest.test_case "mux" `Quick test_mux_semantics;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "const roundtrip" `Quick test_const_roundtrip;
          Alcotest.test_case "const width check" `Quick test_const_width_check;
          Alcotest.test_case "add/sub/neg" `Quick test_add_sub_neg_consts;
          Alcotest.test_case "mul_const" `Quick test_mul_const;
          Alcotest.test_case "sign extend" `Quick test_sign_extend_preserves_value;
          Alcotest.test_case "relu/smax" `Quick test_relu_smax;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          QCheck_alcotest.to_alcotest prop_symbolic_add;
          QCheck_alcotest.to_alcotest prop_symbolic_mul_const;
        ] );
      ( "xor",
        [
          Alcotest.test_case "refutation to DIMACS/DRUP" `Quick
            test_xor_refutation_dimacs;
        ] );
    ]
