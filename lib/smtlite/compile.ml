module Bv = Bitblast.Bv
module Cnf = Bitblast.Cnf

type t = {
  cnf : Cnf.t;
  term_memo : (int, Bv.t) Hashtbl.t;
  formula_memo : (int, Sat.Lit.t) Hashtbl.t;
  var_memo : (int, Bv.t) Hashtbl.t;
  interval_memo : (int, Interval.t) Hashtbl.t;
}

let create ?sink () =
  {
    cnf = Cnf.create ?sink ();
    term_memo = Hashtbl.create 256;
    formula_memo = Hashtbl.create 64;
    var_memo = Hashtbl.create 16;
    interval_memo = Hashtbl.create 256;
  }

let solver t = Cnf.solver t.cnf

(* Interval of a term, memoised across the whole compiler lifetime (term
   ids are globally unique). *)
let rec interval t (term : Term.term) =
  match Hashtbl.find_opt t.interval_memo term.id with
  | Some iv -> iv
  | None ->
      let iv =
        match term.node with
        | Term.Const v -> Interval.point v
        | Term.Var v -> Interval.of_var v
        | Term.Add (a, b) -> Interval.add (interval t a) (interval t b)
        | Term.Sub (a, b) -> Interval.sub (interval t a) (interval t b)
        | Term.Mulc (c, a) -> Interval.mulc c (interval t a)
        | Term.Neg a -> Interval.neg (interval t a)
        | Term.Relu a -> Interval.relu (interval t a)
        | Term.Sign a -> Interval.sign_ (interval t a)
        | Term.Max (a, b) -> Interval.max_ (interval t a) (interval t b)
        | Term.Ite (_, a, b) -> Interval.hull (interval t a) (interval t b)
      in
      Hashtbl.add t.interval_memo term.id iv;
      iv

let term_width t term = Interval.width_for (interval t term) + 1

(* Truncation to a smaller width is exact because interval analysis
   guarantees the value fits the target width. *)
let resize bv w =
  let cur = Bv.width bv in
  if w = cur then bv
  else if w > cur then Bv.sign_extend bv w
  else Bv.of_bits (Array.sub (Bv.bits bv) 0 w)

let compare_widths x y = max (Bv.width x) (Bv.width y) + 1

let rec compile_var t (v : Term.var) =
  match Hashtbl.find_opt t.var_memo v.vid with
  | Some bv -> bv
  | None ->
      let w = Interval.width_for (Interval.of_var v) + 1 in
      let bv = Bv.fresh t.cnf ~width:w in
      (* Range constraints lo <= v <= hi. *)
      let lo = Bv.const t.cnf ~width:w v.lo in
      let hi = Bv.const t.cnf ~width:w v.hi in
      Cnf.assert_lit t.cnf (Bv.sle t.cnf lo bv);
      Cnf.assert_lit t.cnf (Bv.sle t.cnf bv hi);
      Hashtbl.add t.var_memo v.vid bv;
      bv

and compile_term t (term : Term.term) =
  match Hashtbl.find_opt t.term_memo term.id with
  | Some bv -> bv
  | None ->
      let w = term_width t term in
      let bv =
        match term.node with
        | Term.Const v -> Bv.const t.cnf ~width:w v
        | Term.Var v -> resize (compile_var t v) w
        | Term.Add (a, b) ->
            Bv.add t.cnf (resize (compile_term t a) w) (resize (compile_term t b) w)
        | Term.Sub (a, b) ->
            Bv.sub t.cnf (resize (compile_term t a) w) (resize (compile_term t b) w)
        | Term.Mulc (c, a) -> Bv.mul_const t.cnf (resize (compile_term t a) w) c
        | Term.Neg a -> Bv.neg t.cnf (resize (compile_term t a) w)
        | Term.Relu a ->
            let ba = compile_term t a in
            resize (Bv.relu t.cnf ba) w
        | Term.Sign a ->
            (* Native sign-CNF: one comparator per neuron, no arithmetic.
               A stable neuron (interval analysis already fixes the sign)
               folds to a constant; otherwise the result is the 2-bit
               two's-complement vector [1; a < 0] — lsb always set, sign
               bit the comparator literal — i.e. 01 = +1, 11 = -1. *)
            let ia = interval t a in
            if ia.Interval.lo >= 0 then Bv.const t.cnf ~width:w 1
            else if ia.Interval.hi < 0 then Bv.const t.cnf ~width:w (-1)
            else
              let ba = compile_term t a in
              let wa = Bv.width ba + 1 in
              let neg_lit =
                Bv.slt t.cnf (resize ba wa) (Bv.const t.cnf ~width:wa 0)
              in
              resize (Bv.of_bits [| Cnf.btrue t.cnf; neg_lit |]) w
        | Term.Max (a, b) ->
            let ba = compile_term t a and bb = compile_term t b in
            let wc = max (Bv.width ba) (Bv.width bb) in
            resize (Bv.smax t.cnf (resize ba wc) (resize bb wc)) w
        | Term.Ite (c, a, b) ->
            let sel = compile_formula t c in
            Bv.ite t.cnf sel (resize (compile_term t a) w) (resize (compile_term t b) w)
      in
      Hashtbl.add t.term_memo term.id bv;
      bv

and compile_formula t (f : Term.formula) =
  match Hashtbl.find_opt t.formula_memo f.fid with
  | Some l -> l
  | None ->
      let compile_cmp op a b =
        let ba = compile_term t a and bb = compile_term t b in
        let w = compare_widths ba bb in
        op t.cnf (resize ba w) (resize bb w)
      in
      let l =
        match f.fnode with
        | Term.True -> Cnf.btrue t.cnf
        | Term.False -> Cnf.bfalse t.cnf
        | Term.Le (a, b) -> compile_cmp Bv.sle a b
        | Term.Lt (a, b) -> compile_cmp Bv.slt a b
        | Term.Eq (a, b) -> compile_cmp Bv.eq a b
        | Term.Not g -> Cnf.g_not (compile_formula t g)
        | Term.And fs -> Cnf.g_and_list t.cnf (List.map (compile_formula t) fs)
        | Term.Or fs -> Cnf.g_or_list t.cnf (List.map (compile_formula t) fs)
      in
      Hashtbl.add t.formula_memo f.fid l;
      l

let assert_formula t f = Cnf.assert_lit t.cnf (compile_formula t f)

let var_bv = compile_var

let var_value t v = Bv.to_int t.cnf (var_bv t v)

let prioritize t vars =
  let bits =
    List.concat_map
      (fun v ->
        Array.to_list (Array.map Sat.Lit.var (Bv.bits (var_bv t v))))
      vars
  in
  Sat.Solver.set_priority (solver t) bits

let block_assignment t vars =
  if vars = [] then invalid_arg "Compile.block_assignment: no variables";
  let clause =
    List.concat_map
      (fun v ->
        let bv = var_bv t v in
        Array.to_list
          (Array.map
             (fun bit ->
               if Cnf.lit_value t.cnf bit then Sat.Lit.neg bit else bit)
             (Bv.bits bv)))
      vars
  in
  Cnf.add_clause t.cnf clause

let n_clauses t = Sat.Solver.nclauses (solver t)

let n_vars t = Sat.Solver.nvars (solver t)
