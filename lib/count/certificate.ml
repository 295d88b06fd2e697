module T = Smtlite.Term
module B = Util.Bigcount
module J = Util.Json

type proof =
  | Unsat_cube of Cert.Verdict.t
  | Full_cube of Cert.Verdict.t
  | Enum_cube of { witnesses : int array list; completion : Cert.Verdict.t }

type entry = { ranges : (int * int) array; proof : proof }

type t = {
  vars : (string * int * int) array;
  free : (string * int * int) array;
  count : B.t;
  entries : entry list;
}

let version = "fannet-count-cert/1"

let var_triples vars =
  Array.map (fun (v : T.var) -> (v.T.name, v.T.lo, v.T.hi)) vars

let make ~(space : Space.t) ~count ~entries =
  {
    vars = var_triples space.Space.dims;
    free = var_triples space.Space.free;
    count;
    entries;
  }

(* ------------------------------------------------------------------ *)
(* JSON codec (deterministic field order)                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let as_int = function J.Int n -> n | _ -> bad "expected an integer"

let as_string = function J.String s -> s | _ -> bad "expected a string"

let as_list = function J.List l -> l | _ -> bad "expected an array"

let field name = function
  | J.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> bad "missing field %S" name)
  | _ -> bad "expected an object with field %S" name

let int_list_json l = J.List (List.map (fun n -> J.Int n) l)

let int_list j = List.map as_int (as_list j)

(* Cert.Verdict codec, shared with the wire protocol and the journal. *)
let verdict_json (c : Cert.Verdict.t) =
  let clauses cnf = J.List (List.map int_list_json cnf) in
  match c with
  | Cert.Verdict.Model { n_vars; cnf; assumptions; model } ->
      J.Obj
        [
          ("kind", J.String "model");
          ("n_vars", J.Int n_vars);
          ("cnf", clauses cnf);
          ("assumptions", int_list_json assumptions);
          ( "model",
            J.List
              (Array.to_list
                 (Array.map (fun b -> J.Int (if b then 1 else 0)) model)) );
        ]
  | Cert.Verdict.Refutation { n_vars; cnf; assumptions; proof } ->
      let step_json (s : Cert.Rup.step) =
        match s with
        | Cert.Rup.Learn c -> J.List [ J.String "l"; int_list_json c ]
        | Cert.Rup.Delete c -> J.List [ J.String "d"; int_list_json c ]
      in
      J.Obj
        [
          ("kind", J.String "refutation");
          ("n_vars", J.Int n_vars);
          ("cnf", clauses cnf);
          ("assumptions", int_list_json assumptions);
          ("proof", J.List (List.map step_json proof));
        ]

let verdict_of_json_exn j : Cert.Verdict.t =
  let n_vars = as_int (field "n_vars" j) in
  let cnf = List.map int_list (as_list (field "cnf" j)) in
  let assumptions = int_list (field "assumptions" j) in
  match as_string (field "kind" j) with
  | "model" ->
      let model =
        Array.of_list
          (List.map
             (fun v ->
               match as_int v with
               | 0 -> false
               | 1 -> true
               | n -> bad "model bit %d" n)
             (as_list (field "model" j)))
      in
      Cert.Verdict.Model { n_vars; cnf; assumptions; model }
  | "refutation" ->
      let step s : Cert.Rup.step =
        match as_list s with
        | [ J.String "l"; c ] -> Cert.Rup.Learn (int_list c)
        | [ J.String "d"; c ] -> Cert.Rup.Delete (int_list c)
        | _ -> bad "malformed proof step"
      in
      Cert.Verdict.Refutation
        { n_vars; cnf; assumptions; proof = List.map step (as_list (field "proof" j)) }
  | s -> bad "unknown verdict kind %S" s

let verdict_of_json j =
  try Ok (verdict_of_json_exn j) with Bad e -> Error e

let ranges_json rs =
  J.List
    (Array.to_list (Array.map (fun (lo, hi) -> int_list_json [ lo; hi ]) rs))

let ranges_of_json j =
  Array.of_list
    (List.map
       (fun r ->
         match int_list r with
         | [ lo; hi ] -> (lo, hi)
         | _ -> bad "malformed range")
       (as_list j))

let witness_json w = int_list_json (Array.to_list w)

let proof_to_json = function
  | Unsat_cube c -> J.Obj [ ("kind", J.String "unsat"); ("cert", verdict_json c) ]
  | Full_cube c -> J.Obj [ ("kind", J.String "full"); ("cert", verdict_json c) ]
  | Enum_cube { witnesses; completion } ->
      J.Obj
        [
          ("kind", J.String "enum");
          ("witnesses", J.List (List.map witness_json witnesses));
          ("cert", verdict_json completion);
        ]

let proof_of_json_exn j =
  match as_string (field "kind" j) with
  | "unsat" -> Unsat_cube (verdict_of_json_exn (field "cert" j))
  | "full" -> Full_cube (verdict_of_json_exn (field "cert" j))
  | "enum" ->
      Enum_cube
        {
          witnesses =
            List.map
              (fun w -> Array.of_list (int_list w))
              (as_list (field "witnesses" j));
          completion = verdict_of_json_exn (field "cert" j);
        }
  | s -> bad "unknown cube kind %S" s

let proof_of_json j =
  try Ok (proof_of_json_exn j) with Bad e -> Error e

let triple_json (name, lo, hi) = J.List [ J.String name; J.Int lo; J.Int hi ]

let triple_of_json j =
  match as_list j with
  | [ J.String name; J.Int lo; J.Int hi ] -> (name, lo, hi)
  | _ -> bad "malformed variable triple"

let to_json t =
  J.Obj
    [
      ("format", J.String version);
      ( "vars",
        J.List (Array.to_list (Array.map triple_json t.vars)) );
      ( "free",
        J.List (Array.to_list (Array.map triple_json t.free)) );
      ("count", B.to_json t.count);
      ( "cubes",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 (("ranges", ranges_json e.ranges)
                 ::
                 (match proof_to_json e.proof with
                 | J.Obj kvs -> kvs
                 | _ -> assert false)))
             t.entries) );
    ]

let of_json j =
  try
    (match as_string (field "format" j) with
    | v when v = version -> ()
    | v -> bad "format %S (want %S)" v version);
    let triples f =
      Array.of_list (List.map triple_of_json (as_list (field f j)))
    in
    let count =
      match B.of_json (field "count" j) with
      | Ok c -> c
      | Error e -> bad "count: %s" e
    in
    let entries =
      List.map
        (fun e ->
          { ranges = ranges_of_json (field "ranges" e); proof = proof_of_json_exn e })
        (as_list (field "cubes" j))
    in
    Ok { vars = triples "vars"; free = triples "free"; count; entries }
  with Bad e -> Error e

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let entry_mass cube_size = function
  | Unsat_cube _ -> B.zero
  | Full_cube _ -> cube_size
  | Enum_cube { witnesses; _ } -> B.of_int (List.length witnesses)

let describe t =
  let u = ref 0 and fl = ref 0 and e = ref 0 and w = ref 0 in
  List.iter
    (fun { proof; _ } ->
      match proof with
      | Unsat_cube _ -> incr u
      | Full_cube _ -> incr fl
      | Enum_cube { witnesses; _ } ->
          incr e;
          w := !w + List.length witnesses)
    t.entries;
  Printf.sprintf
    "%s: count %s over %d dims (+%d free); cubes: %d unsat, %d full, %d \
     enumerated (%d witnesses)"
    version (B.to_string t.count) (Array.length t.vars) (Array.length t.free)
    !u !fl !e !w

let check f ~project t =
  let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match Space.of_projection f ~project with
  | exception Invalid_argument e -> Error e
  | space ->
      (* 1. The certificate describes exactly this query's space. *)
      let* () =
        if var_triples space.Space.dims <> t.vars then
          err "constrained variables do not match the query"
        else if var_triples space.Space.free <> t.free then
          err "free variables do not match the query"
        else Ok ()
      in
      (* 2. Cubes are valid sub-boxes and pairwise disjoint. *)
      let* cubes =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match Space.of_ranges space e.ranges with
            | Ok c -> Ok ((c, e) :: acc)
            | Error m -> Error m)
          (Ok []) t.entries
      in
      let cubes = List.rev cubes in
      let arr = Array.of_list cubes in
      let n = Array.length arr in
      let* () =
        let clash = ref None in
        for i = 0 to n - 1 do
          for k = i + 1 to n - 1 do
            if
              !clash = None
              && n > 0
              && Array.length (fst arr.(i)) > 0
              && not (Space.disjoint (fst arr.(i)) (fst arr.(k)))
            then clash := Some (i, k)
          done
        done;
        match !clash with
        | Some (i, k) -> err "cubes %d and %d overlap" i k
        | None -> Ok ()
      in
      (* 3. Cube cardinalities cover the space exactly: disjoint boxes
         whose sizes sum to the full size tile it. *)
      let full = Space.size (Space.full_cube space) in
      let covered = B.sum (List.map (fun (c, _) -> Space.size c) cubes) in
      let* () =
        if B.equal covered full then Ok ()
        else
          err "cubes cover %s of %s points" (B.to_string covered)
            (B.to_string full)
      in
      (* 4. Per-cube evidence. *)
      let check_refutation what = function
        | Cert.Verdict.Refutation _ as c -> (
            match Cert.Verdict.check c with
            | Ok () -> Ok ()
            | Error e -> err "%s: %s" what e)
        | Cert.Verdict.Model _ -> err "%s: expected a refutation" what
      in
      let* () =
        List.fold_left
          (fun acc (i, (cube, e)) ->
            let* () = acc in
            match e.proof with
            | Unsat_cube c -> check_refutation (Printf.sprintf "cube %d (unsat)" i) c
            | Full_cube c ->
                let* () =
                  check_refutation (Printf.sprintf "cube %d (full)" i) c
                in
                (* Concrete spot check: a full cube's corner satisfies f. *)
                let corner = Array.map (fun d -> d.Space.lo) cube in
                if
                  Array.length cube = 0
                  || T.eval_formula (Space.assignment space corner) f
                then Ok ()
                else err "cube %d: claimed full but its corner falsifies the formula" i
            | Enum_cube { witnesses; completion } ->
                let* () =
                  check_refutation
                    (Printf.sprintf "cube %d (enum completion)" i)
                    completion
                in
                let tbl = Hashtbl.create 16 in
                List.fold_left
                  (fun acc w ->
                    let* () = acc in
                    if not (Space.mem cube w) then
                      err "cube %d: witness outside the cube" i
                    else if Hashtbl.mem tbl w then
                      err "cube %d: duplicate witness" i
                    else begin
                      Hashtbl.add tbl w ();
                      if T.eval_formula (Space.assignment space w) f then Ok ()
                      else err "cube %d: witness falsifies the formula" i
                    end)
                  (Ok ()) witnesses)
          (Ok ())
          (List.mapi (fun i ce -> (i, ce)) cubes)
      in
      (* 5. The masses reproduce the reported count. *)
      let mass =
        B.sum (List.map (fun (c, e) -> entry_mass (Space.size c) e.proof) cubes)
      in
      let claimed = B.mul mass (Space.free_factor space) in
      if B.equal claimed t.count then Ok ()
      else
        err "cube masses give %s but the certificate claims %s"
          (B.to_string claimed) (B.to_string t.count)
