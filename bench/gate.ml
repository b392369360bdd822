(* The CI performance gate: compare a fresh `main.exe --json` report
   against the committed baseline and fail on regressions.

     gate --baseline FILE --current FILE

   Every bound the gate applies is a constant in this file: [threshold]
   for the kernel metrics and the [bounds] table for derived values.

   Every metric is normalized by its report's [calibration_ns] — the
   cost of a fixed pure-OCaml loop measured on the same machine in the
   same run — so the comparison is a ratio of ratios and survives
   running the baseline and the candidate on different hardware. A
   metric regresses when

     (cur_ns / cur_calibration) > (base_ns / base_calibration) * (1 + threshold)

   Derived values (speedup and overhead ratios) are machine-free, so
   each row of [bounds] holds an absolute min or max. A row that needs
   physical parallelism names the cores it needs; on a report whose
   [cores] field is below that, the gate prints an explicit skip line
   and passes the row. Derived values with no row are printed as info.

   The baseline lists what the current report must carry: each of its
   metrics, and each of its derived values that has a row in [bounds].
   A missing one fails the gate.

   Exit status: 0 when everything passes, 1 on any regression, bound
   violation or missing value, 2 on usage/parse errors. *)

module Json = Fdbs_kernel.Json

(* allowed relative regression of a normalized kernel metric *)
let threshold = 0.25

type row = {
  metric : string;
  op : [ `Min | `Max ];
  bound : float;
  cores : int;  (** the row is gated only on reports with this many cores *)
  what : string;
}

let bounds =
  [
    (* a disabled tracing span per semantics statement: tracing off
       must stay within 2% *)
    { metric = "trace_disabled_overhead"; op = `Max; bound = 0.02; cores = 1;
      what = "disabled tracing per statement" };
    (* the daemon must beat one-shot clients by this margin *)
    { metric = "session_warm_speedup"; op = `Min; bound = 5.; cores = 1;
      what = "warm session vs per-request setup" };
    (* the differential layer must beat re-running every compiled
       constraint plan by this margin *)
    { metric = "constraint_delta_speedup"; op = `Min; bound = 5.; cores = 1;
      what = "differential commit vs from-scratch checks" };
    (* monitoring axioms of modal depth 0 to 3 must stay within 3x the
       bare commit *)
    { metric = "monitor_commit_overhead"; op = `Max; bound = 3.; cores = 1;
      what = "monitored commit vs bare commit" };
    (* served reads/s of a short perfbench read_mix run
       (ci/perfbench-smoke.sh): an absolute floor far below any real
       machine that catches a hung or serialized gateway *)
    { metric = "read_mix_ops_s"; op = `Min; bound = 200.; cores = 1;
      what = "perfbench read_mix reads/s" };
    { metric = "check23_speedup_jobs4"; op = `Min; bound = 1.5; cores = 4;
      what = "Check23 at 4 domains must scale" };
    { metric = "check23_speedup_jobs2"; op = `Min; bound = 1.0; cores = 4;
      what = "2 domains must not regress" };
  ]

let field = Json.field

let num_exn what = function
  | Some (Json.Num f) -> f
  | _ -> raise (Json.Parse_error (what ^ ": missing or non-numeric"))

let nums what = function
  | Some (Json.Obj kvs) ->
    List.filter_map (function k, Json.Num f -> Some (k, f) | _ -> None) kvs
  | _ -> raise (Json.Parse_error (what ^ ": missing or not an object"))

(* [derived] is optional: a baseline without it requires no derived value *)
let derived report =
  match field "derived" report with None -> [] | d -> nums "derived" d

let () =
  let baseline = ref "" in
  let current = ref "" in
  let usage = "gate --baseline FILE --current FILE" in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "FILE committed baseline report");
      ("--current", Arg.Set_string current, "FILE freshly measured report");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !baseline = "" || !current = "" then begin
    prerr_endline usage;
    exit 2
  end;
  match (Json.parse_file !baseline, Json.parse_file !current) with
  | exception Json.Parse_error e ->
    Printf.eprintf "gate: %s\n" e;
    exit 2
  | exception Sys_error e ->
    Printf.eprintf "gate: %s\n" e;
    exit 2
  | base, cur ->
    let base_cal = num_exn "baseline calibration_ns" (field "calibration_ns" base) in
    let cur_cal = num_exn "current calibration_ns" (field "calibration_ns" cur) in
    let cur_metrics = nums "metrics" (field "metrics" cur) in
    let failures = ref 0 in
    let verdict ok =
      if not ok then incr failures;
      if ok then "ok  " else "FAIL"
    in
    Printf.printf "perf gate: threshold %+.0f%%, calibration %.0f -> %.0f ns\n"
      (100. *. threshold) base_cal cur_cal;
    List.iter
      (fun (name, base_ns) ->
        match List.assoc_opt name cur_metrics with
        | None ->
          incr failures;
          Printf.printf "  FAIL %-24s missing from the current report\n" name
        | Some cur_ns ->
          let base_ratio = base_ns /. base_cal in
          let cur_ratio = cur_ns /. cur_cal in
          let change = (cur_ratio /. base_ratio) -. 1. in
          Printf.printf "  %s %-24s %10.0f ns -> %10.0f ns  normalized %+6.1f%%\n"
            (verdict (change <= threshold))
            name base_ns cur_ns (100. *. change))
      (nums "metrics" (field "metrics" base));
    (* the multicore rows need physical parallelism: read the core
       count the current report recorded on its own runner *)
    let cores =
      match field "cores" cur with Some (Json.Num f) -> int_of_float f | _ -> 1
    in
    let base_derived = derived base and cur_derived = derived cur in
    List.iter
      (fun r ->
        match List.assoc_opt r.metric cur_derived with
        | None ->
          if List.mem_assoc r.metric base_derived then begin
            incr failures;
            Printf.printf "  FAIL %-24s missing from the current report\n" r.metric
          end
        | Some f when cores < r.cores ->
          Printf.printf
            "  skip %-24s %.2fx (gate skipped: runner has %d core(s), needs >= %d)\n"
            r.metric f cores r.cores
        | Some f ->
          let ok, op = match r.op with `Min -> (f >= r.bound, "min") | `Max -> (f <= r.bound, "max") in
          Printf.printf "  %s %-24s %.4f (%s %.4f: %s)\n" (verdict ok) r.metric f op
            r.bound r.what)
      bounds;
    List.iter
      (fun (k, f) ->
        if not (List.exists (fun r -> r.metric = k) bounds) then
          Printf.printf "  info %-24s %.2fx (not gated)\n" k f)
      cur_derived;
    if !failures > 0 then begin
      Printf.printf
        "perf gate FAILED: %d check(s) failed\n\
         (apply the bench-override label to the PR to ship a known regression\n\
         and refresh bench/baseline.json in the same change)\n"
        !failures;
      exit 1
    end
    else print_endline "perf gate passed"
