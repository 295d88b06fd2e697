module B = Fannet.Backend

type case_failure = {
  case : Case.t;
  shrunk : Case.t;
  failures : Oracle.failure list;
  shrunk_failures : Oracle.failure list;
}

type report = {
  master_seed : int;
  cases_run : int;
  robust : int;
  flipped : int;
  case_failures : case_failure list;
}

let report_ok r = r.case_failures = []

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "fuzz: %d cases (seed %d): %d robust, %d flipped, %d failing\n"
       r.cases_run r.master_seed r.robust r.flipped (List.length r.case_failures));
  List.iter
    (fun cf ->
      Buffer.add_string buf
        (Printf.sprintf "FAILURE on %s\n" (Case.to_string cf.case));
      List.iter
        (fun f -> Buffer.add_string buf ("  " ^ Oracle.failure_to_string f ^ "\n"))
        cf.failures;
      Buffer.add_string buf
        (Printf.sprintf "  shrunk to %s\n" (Case.to_string cf.shrunk));
      List.iter
        (fun f -> Buffer.add_string buf ("    " ^ Oracle.failure_to_string f ^ "\n"))
        cf.shrunk_failures;
      Buffer.add_string buf
        (Printf.sprintf
           "  replay: fannet fuzz --cases %d --seed %d (case %d, case seed %d)\n"
           r.cases_run r.master_seed cf.case.Case.id cf.case.Case.seed))
    r.case_failures;
  Buffer.contents buf

let run_cases ?run ?(log = fun _ -> ()) ~master_seed cases =
  let n = List.length cases in
  let robust = ref 0 and flipped = ref 0 in
  let case_failures = ref [] in
  List.iteri
    (fun i case ->
      if i > 0 && i mod 100 = 0 then log (Printf.sprintf "  ... %d/%d cases" i n);
      (* The parallel-determinism double-run, the certificate check and
         the counting agreement are sampled: every 8th / 4th / 8th case
         still exercises them while the smoke run stays in budget
         (offsets chosen so the expensive checks rarely land on the same
         case). *)
      let result =
        Oracle.check_case ?run ~check_parallel:(i mod 8 = 0)
          ~check_certificate:(i mod 4 = 0) ~check_count:(i mod 8 = 4) case
      in
      (match result.Oracle.ground_truth with
      | B.Robust -> incr robust
      | B.Flip _ -> incr flipped
      | B.Unknown _ -> ());
      if result.Oracle.failures <> [] then begin
        log (Printf.sprintf "  failure on case %d (seed %d); shrinking..."
               case.Case.id case.Case.seed);
        let fails c = (Oracle.check_case ?run c).Oracle.failures <> [] in
        let shrunk = Shrink.shrink ~fails case in
        let shrunk_failures = (Oracle.check_case ?run shrunk).Oracle.failures in
        case_failures :=
          {
            case;
            shrunk;
            failures = result.Oracle.failures;
            shrunk_failures;
          }
          :: !case_failures
      end)
    cases;
  {
    master_seed;
    cases_run = n;
    robust = !robust;
    flipped = !flipped;
    case_failures = List.rev !case_failures;
  }

let run ?run:runner ?log ?(max_explicit = Gen.default_max_explicit) ~cases ~seed () =
  run_cases ?run:runner ?log ~master_seed:seed
    (Gen.corpus ~seed ~cases ~max_explicit)
