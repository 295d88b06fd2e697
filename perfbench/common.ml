(* Plumbing shared by the workloads: clocks, sample statistics, the
   per-layer span accounting of traced runs, and the workload result. *)

let now = Obs.Clock.now_ns
let s_since t0 = Obs.Clock.elapsed_s ~since:t0
let ms_since t0 = 1e3 *. s_since t0
let nproc () = max 1 (Domain.recommended_domain_count ())

let median a = if Array.length a = 0 then nan else Util.Stats.median a

let mean a =
  if Array.length a = 0 then 0. else Util.Stats.mean a

(* The highest percentile with at least ten samples beyond it: the 11th
   largest sample, i.e. percentile 100 (n - 10) / n. Below 11 samples
   no percentile qualifies and the maximum is reported at p100. *)
let tail a =
  let n = Array.length a in
  let s = Array.copy a in
  Array.sort Float.compare s;
  if n = 0 then (nan, 100.)
  else if n < 11 then (s.(n - 1), 100.)
  else (s.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    Printf.sprintf "/proc/%s/status"
      (match pid with None -> "self" | Some p -> string_of_int p)
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"VmHWM:" l then
               Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
             else None)
      |> Option.value ~default:nan

(* Set-up is repeated and its median reported, so that a single slow
   start does not decide the set-up figure; every state but the last is
   released with [discard]. *)
let repeated_setup ~reps ~discard setup =
  let times = Array.make reps 0. in
  let rec go k =
    let t0 = now () in
    let st = setup () in
    times.(k) <- s_since t0;
    if k = reps - 1 then st
    else begin
      discard st;
      go (k + 1)
    end
  in
  let st = go 0 in
  (st, median times)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** name -> value, units from BENCHMARK.json *)
}

(* ------------------------------------------------------------------ *)
(* Traced runs                                                          *)
(* ------------------------------------------------------------------ *)

(* A traced run wraps every layer call of an op in an [Obs.Span] named
   after the layer, under one root span "op". Spans the libraries open
   themselves (pipeline.*, tolerance.*, smtlite.solve) are folded into
   the nearest enclosing layer span, so a layer's self time is its span
   minus the layer spans nested inside it. Ops alternate between traced
   and untraced, and the difference of their medians is the tracing
   overhead. *)
module Trace = struct
  let layer_names : (string, unit) Hashtbl.t = Hashtbl.create 32
  let self_s : (string, float) Hashtbl.t = Hashtbl.create 32
  let counts : (string, float) Hashtbl.t = Hashtbl.create 32
  let op_total_s = ref 0.
  let traced_ops = ref 0
  let on = ref false
  let traced_ms = ref []
  let untraced_ms = ref []

  let bump tbl name v =
    Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.)

  (* Util.Parallel effort: summed worker busy time against jobs x batch
     wall time. A batch starts at its first item timestamp. *)
  let par_busy = ref 0.
  let par_capacity = ref 0.
  let par_steals = ref 0
  let par_batches = ref 0
  let batch_start = Atomic.make nan

  let parallel_probe =
    {
      Util.Parallel.now_s =
        (fun () ->
          let t = Obs.Clock.now_s () in
          let cur = Atomic.get batch_start in
          if Float.is_nan cur then ignore (Atomic.compare_and_set batch_start cur t);
          t);
      record =
        (fun ~stats ->
          let start = Atomic.exchange batch_start nan in
          if !on then begin
            let wall = if Float.is_nan start then 0. else Obs.Clock.now_s () -. start in
            incr par_batches;
            par_capacity := !par_capacity +. (wall *. float_of_int (Array.length stats));
            Array.iter
              (fun (w : Util.Parallel.worker_stat) ->
                par_busy := !par_busy +. w.busy_s;
                par_steals := !par_steals + w.steals)
              stats
          end);
    }

  (* [Obs.Report.enable] installs its own probe; ours replaces it. *)
  let set_traced b =
    on := b;
    if b then begin
      Obs.Report.enable ();
      Util.Parallel.set_probe (Some parallel_probe)
    end
    else Obs.Report.disable ()

  let layer name f =
    Hashtbl.replace layer_names name ();
    Obs.Span.with_ name f

  (* Attribute [s] seconds of [from]'s self time to [to_] instead — for
     work a layer waits on in another domain, such as a pool job. *)
  let move ~from ~to_ s =
    if !on then begin
      bump self_s from (-.s);
      bump self_s to_ s
    end

  let count name v = if !on then bump counts name v

  let rec nearest_layers (s : Obs.Span.t) =
    List.concat_map
      (fun (c : Obs.Span.t) ->
        if Hashtbl.mem layer_names c.name then [ c ] else nearest_layers c)
      (Obs.Span.children s)

  let rec account (s : Obs.Span.t) =
    let kids = nearest_layers s in
    let covered = List.fold_left (fun a c -> a +. Obs.Span.duration_s c) 0. kids in
    bump self_s s.name (Obs.Span.duration_s s -. covered);
    List.iter account kids

  (* Run one op, traced or not. Returns the op's result and its wall time
     in ms. Callers alternate [traced] over whole cycles of their op mix,
     so both halves see the same mix. *)
  let op ~traced f =
    set_traced traced;
    let t0 = now () in
    let r = if !on then Obs.Span.with_ "op" f else f () in
    let ms = ms_since t0 in
    if !on then begin
      List.iter
        (fun (root : Obs.Span.t) ->
          if root.name = "op" then begin
            account root;
            op_total_s := !op_total_s +. Obs.Span.duration_s root;
            incr traced_ops
          end)
        (Obs.Span.roots ());
      Obs.Span.reset ();
      traced_ms := ms :: !traced_ms
    end
    else untraced_ms := ms :: !untraced_ms;
    (r, ms)

  let per_op v = v /. float_of_int (max 1 !traced_ops)

  (* Mean self time of a layer per traced op, in ms. *)
  let self_ms name =
    1e3 *. per_op (Option.value (Hashtbl.find_opt self_s name) ~default:0.)

  let total name = Option.value (Hashtbl.find_opt counts name) ~default:0.

  (* Share of traced op time that layer spans account for. *)
  let coverage () =
    if !op_total_s <= 0. then 0.
    else 1. -. (Option.value (Hashtbl.find_opt self_s "op") ~default:0. /. !op_total_s)

  let op_mean_ms () = 1e3 *. per_op !op_total_s

  let overhead_ms () =
    median (Array.of_list !traced_ms) -. median (Array.of_list !untraced_ms)

  (* Counter/histogram readings from the library's own Obs registry,
     which records only while an op is traced. *)
  let backend_queries () =
    List.fold_left
      (fun (n, s) name ->
        let v = Obs.Metrics.histogram_view (Obs.Metrics.histogram name) in
        (n + v.count, s +. v.sum))
      (0, 0.)
      [ "backend.bnb.query_s"; "backend.cascade(bnb).query_s"; "backend.interval.query_s" ]

  let parallel_metrics () =
    [
      ("parallel.busy_share", if !par_capacity > 0. then !par_busy /. !par_capacity else 0.);
      ("parallel.steals", per_op (float_of_int !par_steals));
      ("parallel.batches", per_op (float_of_int !par_batches));
    ]

  (* The per-layer table printed by every traced run. *)
  let print_table ~title rows =
    Printf.printf "\n%s: per-layer self time per op (%d traced ops)\n" title !traced_ops;
    let op_ms = op_mean_ms () in
    List.iter
      (fun (name, ms) ->
        Printf.printf "  %-22s %10.3f ms  %5.1f%%\n" name ms
          (if op_ms > 0. then 100. *. ms /. op_ms else 0.))
      rows;
    Printf.printf "  %-22s %10.3f ms\n" "op (traced)" op_ms;
    Printf.printf "  %-22s %10.1f%%\n%!" "covered by layers" (100. *. coverage ())
end
