type counterexample = {
  input_index : int;
  true_label : int;
  predicted : int;
  vector : Noise.vector;
}

type status = Complete | Truncated | Budget of Resil.Budget.reason

let make_counterexample net spec ~input ~label ~input_index vector =
  if not (Noise.in_range spec vector) then
    failwith "Extract: vector outside the noise range";
  let predicted = Noise.predict net spec ~input vector in
  if predicted = label then
    failwith "Extract: vector does not actually misclassify";
  { input_index; true_label = label; predicted; vector }

let of_bnb_status = function
  | `Complete -> Complete
  | `Truncated -> Truncated
  | `Budget r -> Budget r

(* ------------------------------------------------------------------ *)
(* Checkpoint payload (format fannet-ckpt/1, kind "extract"): the      *)
(* enumeration cursor plus the vectors found so far, keyed by a digest *)
(* of the query parameters so a checkpoint cannot silently resume a    *)
(* different extraction.                                               *)
(* ------------------------------------------------------------------ *)

let ckpt_key net spec ~input ~label ~limit =
  Digest.to_hex
    (Digest.string (Marshal.to_string (net, spec, input, label, limit) []))

let vector_to_json (v : Noise.vector) =
  Util.Json.Obj
    [
      ("bias", Util.Json.Int v.Noise.bias);
      ("inputs", Util.Json.of_ints v.Noise.inputs);
    ]

let ckpt_to_json ~key (cursor : int Bnb.cursor) vectors =
  Util.Json.Obj
    [
      ("key", Util.Json.String key);
      ("emitted", Util.Json.Int cursor.Bnb.found);
      ("vectors", Util.Json.List (List.map vector_to_json vectors));
      ("pending", Util.Json.List (List.map Bnb.box_to_json cursor.Bnb.pending));
    ]

let read_ckpt c =
  let module C = Util.Json.Cursor in
  let ints c = Array.of_list (C.list C.int c) in
  let vector c =
    C.obj
      (fun f ->
        let bias = C.field f "bias" C.int in
        { Noise.bias; inputs = C.field f "inputs" ints })
      c
  in
  let read f =
    let key = C.field f "key" C.string in
    let found = C.field f "emitted" C.int in
    let vectors = C.field f "vectors" (C.list vector) in
    let pending = C.field f "pending" (C.list Bnb.read_box) in
    if found <> List.length vectors then C.fail c "emitted count mismatch";
    (key, { Bnb.pending; found }, vectors)
  in
  C.obj read c

let save_ckpt ~key ~path cursor vectors =
  Resil.Ckpt.save ~kind:"extract" ~path (ckpt_to_json ~key cursor vectors)

(* Loading a checkpoint distinguishes three cases: a usable cursor, a
   missing/torn/corrupt file (warn and start fresh — the run is still
   correct, only slower), and a key mismatch (refuse: the checkpoint
   belongs to a different query and resuming it would splice two
   different corpora together). *)
let load_ckpt ~key ~path =
  if not (Sys.file_exists path) then `Fresh
  else
    match Resil.Ckpt.load_with ~kind:"extract" ~path read_ckpt with
    | Error msg -> `Damaged msg
    | Ok (k, cursor, vectors) ->
        if k = key then `Resume (cursor, vectors)
        else
          `Mismatch
            (path
           ^ ": checkpoint belongs to a different extract run \
              (network/spec/input/limit changed)")

let for_input ?(limit = 10_000) ?budget ?checkpoint net spec ~input ~label
    ~input_index =
  let finish vectors st =
    ( List.map (make_counterexample net spec ~input ~label ~input_index) vectors,
      of_bnb_status st )
  in
  match checkpoint with
  | None ->
      let vectors, st = Bnb.enumerate_flips ~limit ?budget net spec ~input ~label in
      finish vectors st
  | Some path ->
      let key = ckpt_key net spec ~input ~label ~limit in
      let cursor, prefix =
        match load_ckpt ~key ~path with
        | `Fresh -> (Bnb.fresh_cursor spec ~input 0, [])
        | `Resume (cursor, vectors) -> (cursor, vectors)
        | `Damaged msg ->
            Printf.eprintf
              "warning: %s — ignoring the checkpoint and starting over\n%!" msg;
            (Bnb.fresh_cursor spec ~input 0, [])
        | `Mismatch msg -> invalid_arg msg
      in
      (* Each save rewrites the whole corpus so far. *)
      let save =
        Resil.Ckpt.throttle (fun (cursor, fresh) ->
            save_ckpt ~key ~path cursor (prefix @ fresh))
      in
      let on_progress cursor fresh = save (cursor, fresh) in
      let fresh, st, final =
        Bnb.enumerate_flips_from ~limit ?budget ~on_progress cursor net spec
          ~input ~label
      in
      let vectors = prefix @ fresh in
      (match st with
      | `Budget _ ->
          (* Exact state at the stop point, so the next run loses
             nothing. *)
          save_ckpt ~key ~path final vectors
      | `Complete | `Truncated ->
          if Sys.file_exists path then Sys.remove path);
      finish vectors st

let weakest a b =
  match (a, b) with
  | Budget r, _ -> Budget r
  | _, Budget r -> Budget r
  | Truncated, _ | _, Truncated -> Truncated
  | Complete, Complete -> Complete

let status_to_string = function
  | Complete -> "complete"
  | Truncated -> "truncated"
  | Budget r -> "budget (" ^ Resil.Budget.reason_to_string r ^ ")"

let for_inputs ?(limit_per_input = 10_000) ?jobs ?budget net spec ~inputs =
  let per_input =
    Util.Parallel.mapi ?jobs
      (fun input_index (input, label) ->
        (* A shared budget needs no pool-level stop protocol: once it is
           exhausted every remaining per-input enumeration returns
           [Budget _] at its entry check, so the batch drains quickly
           and deterministically. *)
        Resil.Faultpoint.guard "worker.raise"
          (Failure "injected fault: extract worker raised");
        for_input ~limit:limit_per_input ?budget net spec ~input ~label
          ~input_index)
      inputs
  in
  let all = List.concat_map fst (Array.to_list per_input) in
  let status = Array.fold_left (fun acc (_, st) -> weakest acc st) Complete per_input in
  (all, status)

let explicit_for_input net spec ~input ~label ~input_index ~limit =
  let size = Noise.spec_size spec ~n_inputs:(Array.length input) in
  if size > limit then
    invalid_arg
      (Printf.sprintf "Extract.explicit_for_input: %d vectors exceed %d" size limit);
  let acc = ref [] in
  Noise.iter_vectors spec ~n_inputs:(Array.length input) (fun v ->
      let predicted = Noise.predict net spec ~input v in
      if predicted <> label then
        acc :=
          { input_index; true_label = label; predicted; vector = v } :: !acc);
  List.rev !acc
