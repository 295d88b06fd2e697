module B = Util.Bigcount
module J = Util.Json

type mode =
  | Exact_mode of { certify : bool }
  | Approx_mode of { epsilon : float; delta : float; seed : int }

let default_mode = Exact_mode { certify = false }

type report = {
  flips : B.t;
  total : B.t;
  probability : float;
  certificate : Count.Certificate.t option;
  solver_calls : int;
  status : (unit, Resil.Budget.reason) result;
  approx : bool;
}

let report ?certificate ?(solver_calls = 0) ?(approx = false) ~flips ~total
    status =
  {
    flips;
    total;
    probability = B.ratio flips total;
    certificate;
    solver_calls;
    status;
    approx;
  }

let query net spec ~input ~label =
  let enc = Encode.encode net ~input spec in
  (Encode.misclassified enc ~true_label:label, Encode.noise_vars enc)

let status_of = function
  | Count.Exact.Decided -> Ok ()
  | Count.Exact.Exhausted r -> Error r

(* A plain count's checkpoint, fannet-ckpt/1 kind "bnb-count", holds the
   walk's pending boxes and its mass. The certified engine's files are
   kind "count", so neither engine resumes the other's. *)
let walk_kind = "bnb-count"

let save_walk ~path ~key (c : Bnb.mass Bnb.cursor) =
  Resil.Ckpt.save ~kind:walk_kind ~path
    (J.Obj
       [
         ("key", J.String key);
         ("flips", B.to_json c.Bnb.found.Bnb.flips);
         ("kept", B.to_json c.Bnb.found.Bnb.kept);
         ("pending", J.List (List.map Bnb.box_to_json c.Bnb.pending));
       ])

let load_walk ~path ~key =
  let fail msg = invalid_arg ("count: checkpoint " ^ path ^ ": " ^ msg) in
  let module C = J.Cursor in
  let read f =
    if C.field f "key" C.string <> key then
      fail "belongs to a different count query";
    let flips = C.field f "flips" B.read in
    let kept = C.field f "kept" B.read in
    let pending = C.field f "pending" (C.list Bnb.read_box) in
    { Bnb.pending; found = { Bnb.flips; kept } }
  in
  match Resil.Ckpt.load_with ~kind:walk_kind ~path (C.obj read) with
  | Error e -> fail e
  | Ok c -> c

(* One Bnb walk; with a checkpoint it resumes from the file, saves its
   progress there at most once a second ({!Resil.Ckpt.throttle}), and
   leaves the file behind only when stopped. *)
let walk ?budget ?checkpoint ~key net spec ~input ~label =
  let fresh () = Bnb.fresh_cursor spec ~input Bnb.no_mass in
  match checkpoint with
  | None -> Bnb.count_flips_from ?budget (fresh ()) net spec ~input ~label
  | Some path ->
      let cursor =
        if Sys.file_exists path then load_walk ~path ~key else fresh ()
      in
      let on_progress = Resil.Ckpt.throttle (save_walk ~path ~key) in
      let c, status =
        Bnb.count_flips_from ?budget ~on_progress cursor net spec ~input ~label
      in
      (match status with
      | `Complete -> if Sys.file_exists path then Sys.remove path
      | `Budget _ -> save_walk ~path ~key c);
      (c, status)

let probability ?budget ?(mode = default_mode) ?jobs ?checkpoint ?ckpt_key net
    spec ~input ~label =
  (* The network is part of the query: a checkpoint written for one
     network is refused by another. *)
  let key () =
    Printf.sprintf "%s net=%s"
      (Option.value ckpt_key ~default:"")
      (Digest.to_hex (Digest.string (Nn.Qnet.to_string net)))
  in
  let total () = Noise.spec_count spec ~n_inputs:(Array.length input) in
  match mode with
  | Exact_mode { certify = false } ->
      let c, status =
        walk ?budget ?checkpoint ~key:(key ()) net spec ~input ~label
      in
      report ~flips:c.Bnb.found.Bnb.flips ~total:(total ())
        (match status with `Complete -> Ok () | `Budget r -> Error r)
  | Exact_mode { certify = true } ->
      let f, project = query net spec ~input ~label in
      let ckpt_key = Option.map (fun _ -> key ()) checkpoint in
      let r =
        Count.Exact.count ?budget ?jobs ?checkpoint ?ckpt_key f ~project
      in
      report ?certificate:r.Count.Exact.certificate
        ~solver_calls:r.Count.Exact.solver_calls ~flips:r.Count.Exact.count
        ~total:r.Count.Exact.total
        (status_of r.Count.Exact.status)
  | Approx_mode { epsilon; delta; seed } ->
      let f, project = query net spec ~input ~label in
      let r = Count.Approx.count ?budget ~epsilon ~delta ~seed f ~project in
      report ~solver_calls:r.Count.Approx.solver_calls
        ~approx:(not r.Count.Approx.exact) ~flips:r.Count.Approx.estimate
        ~total:(total ())
        (status_of r.Count.Approx.status)

let check_certificate net spec ~input ~label cert =
  let f, project = query net spec ~input ~label in
  Count.Certificate.check f ~project cert
