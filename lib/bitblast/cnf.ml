type t = { solver : Sat.Solver.t; true_lit : Sat.Lit.t }

let create ?sink () =
  let solver = Sat.Solver.create () in
  (* Install the proof sink before the first clause so a checker sees the
     complete CNF, including the shared true-literal unit. *)
  (match sink with None -> () | Some _ -> Sat.Solver.set_proof_sink solver sink);
  let v = Sat.Solver.new_var solver in
  let true_lit = Sat.Lit.pos v in
  Sat.Solver.add_clause solver [ true_lit ];
  { solver; true_lit }

let solver t = t.solver

let fresh t = Sat.Lit.pos (Sat.Solver.new_var t.solver)

let btrue t = t.true_lit

let bfalse t = Sat.Lit.neg t.true_lit

let of_bool t b = if b then btrue t else bfalse t

let add_clause t lits = Sat.Solver.add_clause t.solver lits

let assert_lit t l = add_clause t [ l ]

let g_not l = Sat.Lit.neg l

let is_true t l = Sat.Lit.equal l t.true_lit

let is_false t l = Sat.Lit.equal l (Sat.Lit.neg t.true_lit)

let g_and t a b =
  if is_false t a || is_false t b then bfalse t
  else if is_true t a then b
  else if is_true t b then a
  else if Sat.Lit.equal a b then a
  else if Sat.Lit.equal a (Sat.Lit.neg b) then bfalse t
  else begin
    let o = fresh t in
    add_clause t [ Sat.Lit.neg o; a ];
    add_clause t [ Sat.Lit.neg o; b ];
    add_clause t [ o; Sat.Lit.neg a; Sat.Lit.neg b ];
    o
  end

let g_or t a b = g_not (g_and t (g_not a) (g_not b))

let g_xor t a b =
  if is_false t a then b
  else if is_false t b then a
  else if is_true t a then g_not b
  else if is_true t b then g_not a
  else if Sat.Lit.equal a b then bfalse t
  else if Sat.Lit.equal a (Sat.Lit.neg b) then btrue t
  else begin
    let o = fresh t in
    add_clause t [ Sat.Lit.neg o; a; b ];
    add_clause t [ Sat.Lit.neg o; Sat.Lit.neg a; Sat.Lit.neg b ];
    add_clause t [ o; Sat.Lit.neg a; b ];
    add_clause t [ o; a; Sat.Lit.neg b ];
    o
  end

let g_iff t a b = g_not (g_xor t a b)

let g_implies t a b = g_or t (g_not a) b

let g_mux t ~sel ~if_true ~if_false =
  if is_true t sel then if_true
  else if is_false t sel then if_false
  else if Sat.Lit.equal if_true if_false then if_true
  else if Sat.Lit.equal if_true (Sat.Lit.neg if_false) then g_iff t sel if_true
  else begin
    let o = fresh t in
    add_clause t [ Sat.Lit.neg sel; Sat.Lit.neg o; if_true ];
    add_clause t [ Sat.Lit.neg sel; o; Sat.Lit.neg if_true ];
    add_clause t [ sel; Sat.Lit.neg o; if_false ];
    add_clause t [ sel; o; Sat.Lit.neg if_false ];
    o
  end

let g_and_list t = List.fold_left (g_and t) (btrue t)

let g_or_list t = List.fold_left (g_or t) (bfalse t)

let g_full_adder t a b cin =
  let sum = g_xor t (g_xor t a b) cin in
  let carry = g_or t (g_and t a b) (g_and t cin (g_xor t a b)) in
  (sum, carry)

let lit_value t l = Sat.Solver.value t.solver l
