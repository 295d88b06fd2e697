module B = Util.Bigcount

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

let query net spec ~input ~label =
  let enc = Encode.encode net ~input spec in
  (Encode.misclassified enc ~true_label:label, Encode.noise_vars enc)

let status_of = function
  | Count.Exact.Decided -> Ok ()
  | Count.Exact.Exhausted r -> Error r

let probability ?budget ?(mode = default_mode) ?jobs ?checkpoint ?ckpt_key net
    spec ~input ~label =
  let f, project = query net spec ~input ~label in
  match mode with
  | Exact_mode { certify } ->
      (* The network is part of the query: a checkpoint written for one
         network is refused by another. *)
      let ckpt_key =
        Option.map
          (fun _ ->
            Printf.sprintf "%s net=%s"
              (Option.value ckpt_key ~default:"")
              (Digest.to_hex (Digest.string (Nn.Qnet.to_string net))))
          checkpoint
      in
      let r =
        Count.Exact.count ?budget ~certify ?jobs ?checkpoint ?ckpt_key f
          ~project
      in
      {
        flips = r.Count.Exact.count;
        total = r.Count.Exact.total;
        probability = B.ratio r.Count.Exact.count r.Count.Exact.total;
        certificate = r.Count.Exact.certificate;
        solver_calls = r.Count.Exact.solver_calls;
        status = status_of r.Count.Exact.status;
        approx = false;
      }
  | Approx_mode { epsilon; delta; seed } ->
      let r = Count.Approx.count ?budget ~epsilon ~delta ~seed f ~project in
      let total =
        Noise.spec_count spec ~n_inputs:(Array.length input)
      in
      {
        flips = r.Count.Approx.estimate;
        total;
        probability = B.ratio r.Count.Approx.estimate total;
        certificate = None;
        solver_calls = r.Count.Approx.solver_calls;
        status = status_of r.Count.Approx.status;
        approx = not r.Count.Approx.exact;
      }

let check_certificate net spec ~input ~label cert =
  let f, project = query net spec ~input ~label in
  Count.Certificate.check f ~project cert
