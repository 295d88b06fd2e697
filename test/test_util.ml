(* Tests for the util library: RNG determinism/distribution, statistics,
   and table rendering. *)

let test_rng_determinism () =
  let a = Util.Rng.create 42 in
  let b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Util.Rng.create 1 in
  let b = Util.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Rng.int64 a = Util.Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Util.Rng.create 7 in
  ignore (Util.Rng.int64 a);
  let b = Util.Rng.copy a in
  let va = Util.Rng.int64 a in
  let vb = Util.Rng.int64 b in
  Alcotest.(check int64) "copy continues identically" va vb

let test_rng_split_independent () =
  let a = Util.Rng.create 7 in
  let b = Util.Rng.split a in
  let xs = Array.init 32 (fun _ -> Util.Rng.int64 a) in
  let ys = Array.init 32 (fun _ -> Util.Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_range () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_in_bounds () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_int_in_hits_extremes () =
  let rng = Util.Rng.create 5 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let v = Util.Rng.int_in rng (-3) 3 in
    if v = -3 then seen_lo := true;
    if v = 3 then seen_hi := true
  done;
  Alcotest.(check bool) "lower bound reachable" true !seen_lo;
  Alcotest.(check bool) "upper bound reachable" true !seen_hi

let test_rng_int_uniformity () =
  (* 10k draws over 10 buckets: expected count 1000 per bucket, standard
     deviation ~30, so +-200 is a >6-sigma band. Catches gross defects
     (always-even values, truncated draws, sign bugs); SplitMix64 itself
     passes far stricter batteries. The modulo bias documented in rng.mli
     is ~bound/2^62 per value — invisible at this sample size. *)
  let rng = Util.Rng.create 23 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (got %d)" i c)
        true
        (c > 800 && c < 1200))
    buckets

let test_rng_float_unit_interval () =
  let rng = Util.Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Util.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_gaussian_moments () =
  let rng = Util.Rng.create 13 in
  let xs = Array.init 20000 (fun _ -> Util.Rng.gaussian rng) in
  let mean = Util.Stats.mean xs in
  let std = Util.Stats.std xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "std near 1" true (Float.abs (std -. 1.) < 0.05)

let test_rng_shuffle_permutes () =
  let rng = Util.Rng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  let orig = Array.copy a in
  Util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true (sorted = orig);
  Alcotest.(check bool) "usually not identity" true (a <> orig)

let test_stats_mean_variance () =
  let a = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Util.Stats.mean a);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Util.Stats.variance a);
  Alcotest.(check (float 1e-9)) "std" (sqrt 1.25) (Util.Stats.std a)

let test_stats_minmax () =
  let a = [| 3.; -1.; 7.; 0. |] in
  Alcotest.(check (float 0.)) "min" (-1.) (Util.Stats.min a);
  Alcotest.(check (float 0.)) "max" 7. (Util.Stats.max a)

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd" 2. (Util.Stats.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Util.Stats.median [| 4.; 1.; 2.; 3. |])

let test_stats_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "p0" 1. (Util.Stats.percentile a 0.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Util.Stats.percentile a 100.);
  Alcotest.(check (float 1e-9)) "p25" 2. (Util.Stats.percentile a 25.)

let test_stats_pearson () =
  let x = [| 1.; 2.; 3.; 4. |] in
  let y = [| 2.; 4.; 6.; 8. |] in
  Alcotest.(check (float 1e-9)) "perfect +" 1. (Util.Stats.pearson x y);
  let z = [| 8.; 6.; 4.; 2. |] in
  Alcotest.(check (float 1e-9)) "perfect -" (-1.) (Util.Stats.pearson x z);
  let c = [| 5.; 5.; 5.; 5. |] in
  Alcotest.(check (float 1e-9)) "zero variance" 0. (Util.Stats.pearson x c)

let test_stats_histogram () =
  let a = [| 0.1; 0.9; 0.5; -3.; 42. |] in
  let h = Util.Stats.histogram a ~bins:2 ~lo:0. ~hi:1. in
  Alcotest.(check int) "low bucket (incl clamped)" 2 h.(0);
  Alcotest.(check int) "high bucket (incl clamped)" 3 h.(1)

let test_stats_empty_raises () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Stats.mean: empty array") (fun () ->
      ignore (Util.Stats.mean [||]))

let test_stats_nan_rejected () =
  (* Regression: NaN used to sort unpredictably under polymorphic compare
     (skewing percentiles) and to land silently in histogram bucket 0. *)
  let poisoned = [| 1.; Float.nan; 3. |] in
  Alcotest.check_raises "percentile rejects NaN"
    (Invalid_argument "Stats.percentile: NaN in input") (fun () ->
      ignore (Util.Stats.percentile poisoned 50.));
  Alcotest.check_raises "median rejects NaN"
    (Invalid_argument "Stats.percentile: NaN in input") (fun () ->
      ignore (Util.Stats.median poisoned));
  Alcotest.check_raises "histogram rejects NaN"
    (Invalid_argument "Stats.histogram: NaN in input") (fun () ->
      ignore (Util.Stats.histogram poisoned ~bins:2 ~lo:0. ~hi:4.))

let test_stats_percentile_order_independent () =
  (* Float.compare gives rank statistics a fixed IEEE total order: any
     permutation of the input yields the identical percentile. *)
  let a = [| 5.; -0.; 1.; 0.; 3.; 2. |] in
  let b = [| 3.; 0.; 5.; 2.; -0.; 1. |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%.0f" p)
        (Util.Stats.percentile a p) (Util.Stats.percentile b p))
    [ 0.; 25.; 50.; 75.; 100. ]

let test_table_render () =
  let t = Util.Table.create ~header:[ "name"; "value" ] in
  Util.Table.add_row t [ "alpha"; "1" ];
  Util.Table.add_row t [ "b"; "22" ];
  let s = Util.Table.to_string t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + sep + 2 rows" 4 (List.length lines);
  (* All lines padded to equal visible width per column. *)
  (match lines with
  | _ :: sep :: _ -> Alcotest.(check bool) "separator dashes" true (String.contains sep '-')
  | _ -> Alcotest.fail "missing separator")

let test_table_row_arity_checked () =
  let t = Util.Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Table.add_row: cell count differs from header")
    (fun () -> Util.Table.add_row t [ "only-one" ])

let test_table_int_row () =
  let t = Util.Table.create ~header:[ "k"; "x"; "y" ] in
  Util.Table.add_int_row t "row" [ 1; -2 ];
  let s = Util.Table.to_string t in
  Alcotest.(check bool) "renders ints" true
    (let contains sub =
       let n = String.length s and m = String.length sub in
       let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
       loop 0
     in
     contains "-2")

(* ---------- Parallel ---------- *)

let test_parallel_map_matches_array_map () =
  let arr = Array.init 103 (fun i -> i - 50) in
  let f x = (x * x) - (3 * x) in
  let expected = Array.map f arr in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "map jobs=%d" jobs)
        true
        (Util.Parallel.map ~jobs f arr = expected))
    [ 1; 2; 4 ]

let test_parallel_mapi_order () =
  let arr = Array.init 57 (fun i -> 2 * i) in
  let expected = Array.mapi (fun i x -> (i, x + 1)) arr in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "mapi jobs=%d" jobs)
        true
        (Util.Parallel.mapi ~jobs (fun i x -> (i, x + 1)) arr = expected))
    [ 1; 2; 4; 16 ]

let test_parallel_filter_map_order () =
  let arr = Array.init 101 (fun i -> i) in
  let f x = if x mod 3 = 0 then Some (x * 10) else None in
  let expected = List.filter_map f (Array.to_list arr) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "filter_map jobs=%d" jobs)
        expected
        (Util.Parallel.filter_map ~jobs f arr))
    [ 1; 2; 4 ]

let test_parallel_exists () =
  let arr = Array.init 200 (fun i -> i) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool) "hit" true
        (Util.Parallel.exists ~jobs (fun x -> x = 137) arr);
      Alcotest.(check bool) "miss" false
        (Util.Parallel.exists ~jobs (fun x -> x > 1000) arr))
    [ 1; 2; 4 ]

let test_parallel_empty_and_small () =
  Alcotest.(check bool) "empty map" true (Util.Parallel.map ~jobs:4 succ [||] = [||]);
  Alcotest.(check (list int)) "empty filter_map" []
    (Util.Parallel.filter_map ~jobs:4 (fun x -> Some x) [||]);
  Alcotest.(check bool) "more jobs than elements" true
    (Util.Parallel.map ~jobs:16 succ [| 1; 2; 3 |] = [| 2; 3; 4 |])

let test_parallel_worker_exception_propagates () =
  let arr = Array.init 64 (fun i -> i) in
  Alcotest.check_raises "re-raised" (Failure "boom") (fun () ->
      ignore (Util.Parallel.map ~jobs:4 (fun x -> if x = 60 then failwith "boom" else x) arr))

let test_parallel_joins_workers_before_reraise () =
  (* Regression: a failing chunk must not leak still-running domains. The
     calling domain's chunk (indices 0-3 at jobs=4) dies immediately while
     the spawned chunks are still sleeping; the pool has to join them all
     before re-raising, so by the time the exception surfaces every
     spawned element has run to completion. The pre-fix code re-raised
     without joining and left the workers mid-flight. *)
  let arr = Array.init 16 (fun i -> i) in
  let finished = Atomic.make 0 in
  (try
     ignore
       (Util.Parallel.map ~jobs:4
          (fun x ->
            if x < 4 then failwith "chunk0 dies"
            else begin
              Unix.sleepf 0.02;
              Atomic.incr finished;
              x
            end)
          arr);
     Alcotest.fail "expected the chunk-0 failure to propagate"
   with Failure m -> Alcotest.(check string) "chunk-0 exception" "chunk0 dies" m);
  Alcotest.(check int) "all spawned elements completed" 12 (Atomic.get finished)

let test_parallel_first_chunk_exception_wins () =
  (* When several chunks fail, the lowest-numbered chunk's exception is
     the one re-raised — even if a later chunk failed first in time. *)
  let arr = Array.init 16 (fun i -> i) in
  Alcotest.check_raises "chunk-order, not time-order" (Failure "early chunk")
    (fun () ->
      ignore
        (Util.Parallel.map ~jobs:4
           (fun x ->
             if x < 4 then begin
               (* Give the later chunks time to fail first. *)
               Unix.sleepf 0.02;
               failwith "early chunk"
             end
             else failwith "late chunk")
           arr))

let test_parallel_adversarial_delays () =
  (* Work stealing under adversarial per-item delays: a handful of slow
     items land in one seeded range, idle workers must steal around them
     and every combinator must still return the jobs=1 result in input
     order. Delay pattern: item 0 and every 17th item sleep, everything
     else is instant — under static chunking worker 0 would own almost
     all the slow items. *)
  let n = 97 in
  let arr = Array.init n (fun i -> i) in
  let f x =
    if x = 0 || x mod 17 = 0 then Unix.sleepf 0.01;
    (x * 7) mod 13
  in
  let fi i x = if f x = 0 then Some (i, x) else None in
  let expected_map = Util.Parallel.map ~jobs:1 f arr in
  let expected_fm = Util.Parallel.filter_mapi ~jobs:1 fi arr in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "map jobs=%d" jobs)
        true
        (Util.Parallel.map ~jobs f arr = expected_map);
      Alcotest.(check bool)
        (Printf.sprintf "filter_mapi jobs=%d" jobs)
        true
        (Util.Parallel.filter_mapi ~jobs fi arr = expected_fm))
    [ 2; 3; 4; 8 ]

let test_parallel_steals_balance_skew () =
  (* The probe must see the skew-adjusted picture: with one pathological
     item and plenty of cheap ones, stealing spreads the cheap items so
     no worker is left idle while another owns the whole tail. We assert
     on the recorded per-worker stats: all items accounted for exactly
     once and at least one steal happened. *)
  let recorded = ref [||] in
  Util.Parallel.set_probe
    (Some
       {
         Util.Parallel.now_s = (fun () -> Unix.gettimeofday ());
         record = (fun ~stats -> recorded := stats);
       });
  Fun.protect ~finally:(fun () -> Util.Parallel.set_probe None) @@ fun () ->
  let arr = Array.init 64 (fun i -> i) in
  let _ =
    Util.Parallel.map ~jobs:4
      (fun x ->
        if x = 1 then Unix.sleepf 0.05;
        x)
      arr
  in
  let stats = !recorded in
  Alcotest.(check int) "one stat per worker" 4 (Array.length stats);
  let items =
    Array.fold_left (fun acc s -> acc + s.Util.Parallel.items) 0 stats
  in
  Alcotest.(check int) "every item ran exactly once" 64 items;
  let steals =
    Array.fold_left (fun acc s -> acc + s.Util.Parallel.steals) 0 stats
  in
  Alcotest.(check bool) "sleeping owner got robbed" true (steals > 0)

let test_parallel_default_jobs_override () =
  let before = Util.Parallel.default_jobs () in
  Alcotest.(check bool) "at least 1" true (before >= 1);
  Util.Parallel.set_default_jobs (Some 3);
  Alcotest.(check int) "override" 3 (Util.Parallel.default_jobs ());
  Util.Parallel.set_default_jobs (Some 0);
  Alcotest.(check int) "clamped to 1" 1 (Util.Parallel.default_jobs ());
  Util.Parallel.set_default_jobs None;
  Alcotest.(check int) "restored" before (Util.Parallel.default_jobs ())

(* ---------- Json ---------- *)

let sample_json =
  Util.Json.(
    Obj
      [
        ("schema", String "test/1");
        ("ok", Bool true);
        ("none", Null);
        ("count", Int (-42));
        ("ratio", Float 2.5);
        ("text", String "a \"quoted\"\nline\twith\\escapes");
        ("items", List [ Int 1; Float 0.5; String "x"; List []; Obj [] ]);
      ])

let test_json_roundtrip_compact () =
  match Util.Json.of_string (Util.Json.to_string sample_json) with
  | Ok v -> Alcotest.(check bool) "compact roundtrip" true (v = sample_json)
  | Error e -> Alcotest.fail e

let test_json_roundtrip_pretty () =
  match Util.Json.of_string (Util.Json.pretty sample_json) with
  | Ok v -> Alcotest.(check bool) "pretty roundtrip" true (v = sample_json)
  | Error e -> Alcotest.fail e

let test_json_member () =
  Alcotest.(check bool) "present" true
    (Util.Json.member "count" sample_json = Some (Util.Json.Int (-42)));
  Alcotest.(check bool) "absent" true (Util.Json.member "nope" sample_json = None);
  Alcotest.(check bool) "non-object" true
    (Util.Json.member "x" (Util.Json.Int 3) = None)

let test_json_parse_errors () =
  let fails s =
    match Util.Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | Error e ->
        Alcotest.(check bool) "mentions byte offset" true
          (String.length e > 0
          && String.split_on_char ' ' e |> List.exists (( = ) "byte"))
  in
  List.iter fails
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "[1] garbage" ]

let test_json_file_roundtrip () =
  let path = Filename.temp_file "fannet_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Util.Json.write_file path sample_json;
      match Util.Json.parse_file path with
      | Ok v -> Alcotest.(check bool) "file roundtrip" true (v = sample_json)
      | Error e -> Alcotest.fail e)

(* Pinned parser results: integers of up to 18 digits take a fast path
   that must agree with the general one on every value and error. *)
let test_json_numbers_pinned () =
  let open Util.Json in
  let shown = function
    | Ok v -> "Ok " ^ to_string v
    | Error e -> "Error " ^ e
  in
  let check input expected =
    Alcotest.(check string) (Printf.sprintf "of_string %S" input) (shown expected)
      (shown (of_string input))
  in
  let err at msg = Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg) in
  check "0" (Ok (Int 0));
  check "-0" (Ok (Int 0));
  check "007" (Ok (Int 7));
  check "-" (err 1 {|bad number "-"|});
  check "--1" (err 3 {|bad number "--1"|});
  check "+1" (err 0 "unexpected '+'");
  check "1-2" (err 3 {|bad number "1-2"|});
  check "12a" (err 2 "trailing garbage");
  check "1e3" (Ok (Float 1000.));
  check "1.5" (Ok (Float 1.5));
  check "-1.5e-3" (Ok (Float (-1.5e-3)));
  check (string_of_int max_int) (Ok (Int max_int));
  check (string_of_int min_int) (Ok (Int min_int));
  check "4611686018427387904" (err 19 {|bad number "4611686018427387904"|});
  check "123456789012345678" (Ok (Int 123456789012345678));
  check "-999999999999999999" (Ok (Int (-999999999999999999)));
  check "1234567890123456789" (Ok (Int 1234567890123456789));
  check "-1234567890123456789" (Ok (Int (-1234567890123456789)));
  check "12345678901234567890" (err 20 {|bad number "12345678901234567890"|});
  check "[1,-2]" (Ok (List [ Int 1; Int (-2) ]));
  check {|{"a":-12}|} (Ok (Obj [ ("a", Int (-12)) ]));
  check "[3,4 ,5]" (Ok (List [ Int 3; Int 4; Int 5 ]));
  check " 42 " (Ok (Int 42));
  check "[7\n,8\t]" (Ok (List [ Int 7; Int 8 ]));
  check "[9\r]" (Ok (List [ Int 9 ]))

(* Emitter bytes pinned: the renderings of one fixed document, captured
   before the emitter wrote digits and plain strings straight into its
   buffer. Wire replies, journal records and certificates must keep
   these bytes. *)
let pinned_doc =
  let open Util.Json in
  let ctl = String.init 32 Char.chr in
  Obj
    [
      ("ints", List [ Int min_int; Int max_int; Int 0; Int (-1); Int (-42); Int 7; Int 1000000 ]);
      ("text", String ("q\"b\\s/" ^ ctl ^ "\x7f\xc3\xa9"));
      (ctl, Bool true);
      ("empty", List [ List []; Obj []; List [ List []; Obj [ ("", Obj []) ] ] ]);
      ( "nested",
        Obj
          [
            ("a", List [ Null; Bool false; Float 2.5; Float (-0.125) ]);
            ("b", Obj [ ("c", String "") ]);
          ] );
    ]

(* Each control character escaped: \uXXXX, or \t \n \r. *)
let pinned_ctl =
  String.concat ""
    [
      {|\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n|};
      {|\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015|};
      {|\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f|};
    ]

let pinned_text = {|"q\"b\\s/|} ^ pinned_ctl ^ "\x7f\xc3\xa9\""

let test_json_emitter_pinned () =
  let compact =
    String.concat ""
      [
        {|{"ints":[-4611686018427387904,4611686018427387903,0,-1,-42,7,1000000],|};
        {|"text":|} ^ pinned_text ^ ",";
        {|"|} ^ pinned_ctl ^ {|":true,|};
        {|"empty":[[],{},[[],{"":{}}]],|};
        {|"nested":{"a":[null,false,2.5,-0.125],"b":{"c":""}}}|};
      ]
  in
  let pretty =
    String.concat "\n"
      [
        "{";
        {|  "ints": [|};
        "    -4611686018427387904,";
        "    4611686018427387903,";
        "    0,";
        "    -1,";
        "    -42,";
        "    7,";
        "    1000000";
        "  ],";
        {|  "text": |} ^ pinned_text ^ ",";
        {|  "|} ^ pinned_ctl ^ {|": true,|};
        {|  "empty": [|};
        "    [],";
        "    {},";
        "    [";
        "      [],";
        "      {";
        {|        "": {}|};
        "      }";
        "    ]";
        "  ],";
        {|  "nested": {|};
        {|    "a": [|};
        "      null,";
        "      false,";
        "      2.5,";
        "      -0.125";
        "    ],";
        {|    "b": {|};
        {|      "c": ""|};
        "    }";
        "  }";
        "}";
      ]
  in
  Alcotest.(check string) "to_string" compact (Util.Json.to_string pinned_doc);
  Alcotest.(check string) "pretty" pretty (Util.Json.pretty pinned_doc)

(* JSON has no infinities or NaN: they render as null, which parses. *)
let test_json_non_finite_floats () =
  let open Util.Json in
  List.iter
    (fun f ->
      let v = Obj [ ("x", Float f); ("l", List [ Float f; Int 1 ]) ] in
      Alcotest.(check string) (Printf.sprintf "%h renders null" f)
        {|{"x":null,"l":[null,1]}|} (to_string v);
      match of_string (pretty v) with
      | Ok v' ->
          Alcotest.(check bool) "reads back as null" true
            (v' = Obj [ ("x", Null); ("l", List [ Null; Int 1 ]) ])
      | Error e -> Alcotest.failf "own rendering rejected: %s" e)
    [ infinity; neg_infinity; nan ]

(* Trees whose every leaf [to_string] renders exactly: integers over the
   whole [int] range, dyadic floats, arbitrary bytes in strings and
   keys. *)
let gen_json =
  QCheck.Gen.(
    let int_leaf =
      oneof
        [ int; oneofl [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ]; -1000 -- 1000 ]
    in
    let leaf =
      oneof
        [
          return Util.Json.Null;
          map (fun b -> Util.Json.Bool b) bool;
          map (fun n -> Util.Json.Int n) int_leaf;
          map (fun k -> Util.Json.Float (float_of_int k /. 8.)) (-100_000 -- 100_000);
          map (fun s -> Util.Json.String s) (string_size (0 -- 8));
        ]
    in
    sized_size (0 -- 6)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Util.Json.List l) (list_size (0 -- 5) (self (n - 1))));
                 ( 1,
                   map
                     (fun l -> Util.Json.Obj l)
                     (list_size (0 -- 4) (pair (string_size (0 -- 6)) (self (n - 1)))) );
               ]))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: of_string (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Util.Json.to_string gen_json) (fun v ->
      Util.Json.of_string (Util.Json.to_string v) = Ok v
      && Util.Json.of_string (Util.Json.pretty v) = Ok v)

(* ---------- Bigcount ---------- *)

module Bc = Util.Bigcount

let bigcount = Alcotest.testable (Fmt.of_to_string Bc.to_string) Bc.equal

let test_bigcount_exact_arithmetic () =
  Alcotest.check bigcount "add" (Bc.of_int 7) (Bc.add (Bc.of_int 3) (Bc.of_int 4));
  Alcotest.check bigcount "mul" (Bc.of_int 12) (Bc.mul (Bc.of_int 3) (Bc.of_int 4));
  Alcotest.check bigcount "sum" (Bc.of_int 10)
    (Bc.sum [ Bc.of_int 1; Bc.of_int 2; Bc.of_int 3; Bc.of_int 4 ]);
  Alcotest.check bigcount "pow2 small" (Bc.of_int 1024) (Bc.pow2 10);
  Alcotest.check bigcount "pow" (Bc.of_int 81) (Bc.pow ~base:3 ~exp:4);
  Alcotest.check bigcount "mul by zero" Bc.zero (Bc.mul Bc.zero (Bc.pow2 100));
  Alcotest.(check bool) "is_zero" true (Bc.is_zero Bc.zero);
  Alcotest.(check bool) "one not zero" false (Bc.is_zero Bc.one);
  match Bc.of_int (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative counts must be rejected"

let test_bigcount_saturation () =
  (* Saturation marks the value as Huge instead of silently wrapping. *)
  let near = Bc.of_int max_int in
  (match Bc.add near near with
  | Bc.Huge l -> Alcotest.(check bool) "add log near 63" true (Float.abs (l -. 63.) < 0.01)
  | Bc.Exact n -> Alcotest.failf "add wrapped to %d" n);
  (match Bc.mul (Bc.pow2 40) (Bc.pow2 40) with
  | Bc.Huge l -> Alcotest.(check (float 1e-9)) "mul log adds" 80. l
  | Bc.Exact n -> Alcotest.failf "mul wrapped to %d" n);
  (* 1000^8 ≈ 2^79.7, the module's own motivating example. *)
  (match Bc.pow ~base:1000 ~exp:8 with
  | Bc.Huge l -> Alcotest.(check bool) "pow log" true (Float.abs (l -. 79.726) < 0.01)
  | Bc.Exact n -> Alcotest.failf "pow wrapped to %d" n);
  (* Huge propagates through further sums (log-sum-exp, monotone). *)
  match Bc.add (Bc.pow2 100) (Bc.pow2 100) with
  | Bc.Huge l -> Alcotest.(check (float 1e-6)) "log-sum-exp" 101. l
  | Bc.Exact n -> Alcotest.failf "huge sum collapsed to %d" n

let test_bigcount_ratio_and_order () =
  Alcotest.(check (float 1e-12)) "exact ratio" 0.25
    (Bc.ratio (Bc.of_int 1) (Bc.of_int 4));
  Alcotest.(check (float 1e-12)) "zero denominator" 0. (Bc.ratio Bc.one Bc.zero);
  Alcotest.(check (float 1e-9)) "huge ratio in log space" 0.25
    (Bc.ratio (Bc.pow2 100) (Bc.pow2 102));
  Alcotest.(check (float 1e-9)) "mixed exact/huge ratio" 0.5
    (Bc.ratio (Bc.of_int 1024) (Bc.mul (Bc.of_int 2) (Bc.of_int 1024)));
  Alcotest.(check bool) "order: zero < one" true (Bc.compare Bc.zero Bc.one < 0);
  Alcotest.(check bool) "order: exact < huge" true
    (Bc.compare (Bc.of_int max_int) (Bc.pow2 90) < 0);
  Alcotest.(check bool) "order: huge by log" true
    (Bc.compare (Bc.pow2 90) (Bc.pow2 91) < 0);
  Alcotest.(check bool) "log2 of zero" true (Bc.log2 Bc.zero = neg_infinity)

let test_bigcount_json_roundtrip () =
  let read s = Util.Json.Cursor.parse Bc.read s in
  let roundtrip c =
    match read (Util.Json.to_string (Bc.to_json c)) with
    | Ok c' -> Alcotest.check bigcount "roundtrip" c c'
    | Error e -> Alcotest.failf "read failed: %s" e
  in
  List.iter roundtrip [ Bc.zero; Bc.one; Bc.of_int 123456; Bc.pow2 200 ];
  (* Deterministic bytes: the cache-key property. *)
  Alcotest.(check string) "bytes stable"
    (Util.Json.to_string (Bc.to_json (Bc.pow2 200)))
    (Util.Json.to_string (Bc.to_json (Bc.pow2 200)));
  List.iter
    (fun s ->
      match read s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s must be rejected" s)
    [ {|"nope"|}; "-3"; {|{"huge_log2":"x"}|} ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int_in extremes" `Quick test_rng_int_in_hits_extremes;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "float unit interval" `Quick test_rng_float_unit_interval;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "NaN rejected" `Quick test_stats_nan_rejected;
          Alcotest.test_case "percentile order-independent" `Quick
            test_stats_percentile_order_independent;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row arity" `Quick test_table_row_arity_checked;
          Alcotest.test_case "int rows" `Quick test_table_int_row;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map = Array.map" `Quick test_parallel_map_matches_array_map;
          Alcotest.test_case "mapi order" `Quick test_parallel_mapi_order;
          Alcotest.test_case "filter_map order" `Quick test_parallel_filter_map_order;
          Alcotest.test_case "exists" `Quick test_parallel_exists;
          Alcotest.test_case "empty/small arrays" `Quick test_parallel_empty_and_small;
          Alcotest.test_case "worker exception" `Quick test_parallel_worker_exception_propagates;
          Alcotest.test_case "joins workers before re-raise" `Quick
            test_parallel_joins_workers_before_reraise;
          Alcotest.test_case "first chunk's exception wins" `Quick
            test_parallel_first_chunk_exception_wins;
          Alcotest.test_case "adversarial delays deterministic" `Quick
            test_parallel_adversarial_delays;
          Alcotest.test_case "steals balance skew" `Quick
            test_parallel_steals_balance_skew;
          Alcotest.test_case "default jobs override" `Quick test_parallel_default_jobs_override;
        ] );
      ( "json",
        [
          Alcotest.test_case "compact roundtrip" `Quick test_json_roundtrip_compact;
          Alcotest.test_case "pretty roundtrip" `Quick test_json_roundtrip_pretty;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "file roundtrip" `Quick test_json_file_roundtrip;
          Alcotest.test_case "numbers pinned" `Quick test_json_numbers_pinned;
          Alcotest.test_case "emitter bytes pinned" `Quick test_json_emitter_pinned;
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite_floats;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "bigcount",
        [
          Alcotest.test_case "exact arithmetic" `Quick test_bigcount_exact_arithmetic;
          Alcotest.test_case "saturation" `Quick test_bigcount_saturation;
          Alcotest.test_case "ratio and order" `Quick test_bigcount_ratio_and_order;
          Alcotest.test_case "json roundtrip" `Quick test_bigcount_json_roundtrip;
        ] );
    ]
