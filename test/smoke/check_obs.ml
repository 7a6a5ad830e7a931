(* Observability smoke validator, three modes:

   [check_obs stream FILE.jsonl] — a colayout/obs/v1 snapshot stream (from
   `repro serve --obs` or the obs bench): every line parses, sequence
   numbers are dense, timestamps are monotonic, and every embedded
   interference section conserves ([Gates.check_stream]).

   [check_obs serve METRICS.json SERVE.json] — flush-on-exit coverage for
   `repro serve --metrics`: when the run ends mid-epoch the final snapshot
   must still account for every ingested trace (counters match the serve
   summary's trace total) and the summary's epoch table must end with the
   flushed partial epoch row.

   [check_obs METRICS.json TRACE.json [EXPERIMENT_ID...]] — the original
   CLI-smoke mode: the metrics snapshot and Chrome trace that
   `repro run ... --metrics --trace` wrote both parse, the trace has one
   span per experiment and per optimizer stage with non-negative
   durations, and the metrics carry nonzero Ctx memo hit/miss counters
   and cache access/miss totals. *)

module J = Colayout_util.Json
open Smoke_check

let check_stream path =
  match Gates.check_stream (read_file path) with
  | Ok summary -> Printf.printf "check_obs: %s ok (%s)\n" path summary
  | Error e -> fail "%s: %s" path e

(* Flush-on-exit: `repro serve --users 5 --epoch 2` ends mid-epoch, and the
   --metrics snapshot plus the summary's epoch table must both reflect the
   flushed partial epoch — no trace ingested after the last full epoch
   boundary may go unaccounted. *)
let check_serve metrics_path serve_path =
  let mjson = parse metrics_path in
  require_schema mjson ~path:metrics_path "colayout/metrics/v1";
  let counters = get_obj mjson ~path:metrics_path "counters" in
  let counter name =
    match List.assoc_opt name counters with
    | Some (J.Int v) -> v
    | _ -> fail "%s: missing counter %S" metrics_path name
  in
  let users = counter "serve.users" in
  if users <= 0 then fail "%s: serve.users is not positive" metrics_path;
  let ingested = counter "ingest.traces" in
  let sjson = parse serve_path in
  require_schema sjson ~path:serve_path "colayout/serve/v1";
  let config = J.Obj (get_obj sjson ~path:serve_path "config") in
  let stats = J.Obj (get_obj sjson ~path:serve_path "stats") in
  if get_int config "users" <> users then
    fail "%s: config.users %d disagrees with the metrics snapshot's %d" serve_path
      (get_int config "users") users;
  let traces = get_int stats "traces" in
  if traces <> users then
    fail "%s: %d users but only %d traces ingested" serve_path users traces;
  if ingested <> traces then
    fail "%s: metrics snapshot counted %d traces, summary says %d (snapshot not merged?)"
      metrics_path ingested traces;
  let epoch_traces = get_int config "epoch_traces" in
  if epoch_traces <= 0 || users mod epoch_traces = 0 then
    fail "%s: users %d is a multiple of epoch_traces %d — this mode exists to exercise a \
         mid-epoch exit"
      serve_path users epoch_traces;
  let epochs = get_list sjson ~path:serve_path "epochs" in
  (match List.rev epochs with
  | [] -> fail "%s: no epoch rows (need a flushed partial epoch)" serve_path
  | last :: earlier ->
    if not (get_bool last ~path:serve_path "partial") then
      fail "%s: run ended mid-epoch but the last epoch row is not partial" serve_path;
    if get_int last "at_trace" <> users then
      fail "%s: partial epoch flushed at trace %d, expected %d" serve_path
        (get_int last "at_trace") users;
    List.iter
      (fun row ->
        if get_bool row ~path:serve_path "partial" then
          fail "%s: non-final epoch row %d is marked partial" serve_path (get_int row "epoch"))
      earlier);
  Printf.printf
    "check_obs: %s + %s ok (%d traces accounted, partial epoch flushed at exit)\n"
    metrics_path serve_path traces

let check_metrics path =
  let json = parse path in
  require_schema json ~path "colayout/metrics/v1";
  let counters = get_obj json ~path "counters" in
  let value name =
    match List.assoc_opt name counters with Some (J.Int v) -> v | _ -> 0
  in
  let sum_matching pred =
    List.fold_left
      (fun acc (k, v) -> match v with J.Int n when pred k -> acc + n | _ -> acc)
      0 counters
  in
  let memo_hits =
    sum_matching (fun k -> has_prefix k "ctx.memo." && Filename.check_suffix k ".hits")
  in
  let memo_misses =
    sum_matching (fun k -> has_prefix k "ctx.memo." && Filename.check_suffix k ".misses")
  in
  if memo_hits <= 0 then fail "%s: no Ctx memo hits recorded" path;
  if memo_misses <= 0 then fail "%s: no Ctx memo misses recorded" path;
  if value "cache.accesses" <= 0 then fail "%s: cache.accesses is zero" path;
  if value "cache.misses" <= 0 then fail "%s: cache.misses is zero" path;
  if value "interp.blocks" <= 0 then fail "%s: interp.blocks is zero" path;
  Printf.printf "check_obs: %s ok (%d memo hits, %d misses, %d cache accesses)\n" path
    memo_hits memo_misses (value "cache.accesses")

let check_trace path ~experiments =
  let json = parse path in
  let events = get_list json ~path "traceEvents" in
  if events = [] then fail "%s: empty trace" path;
  let names =
    List.map
      (fun ev ->
        let name = get_str ev ~path "name" in
        let dur = get_int ev "dur" and ts = get_int ev "ts" in
        if dur < 0 then fail "%s: span %s has negative duration %d" path name dur;
        if ts < 0 then fail "%s: span %s has negative timestamp %d" path name ts;
        name)
      events
  in
  let has prefix = List.exists (fun n -> has_prefix n prefix) names in
  List.iter
    (fun id -> if not (List.mem ("exp:" ^ id) names) then fail "%s: no span for experiment %s" path id)
    experiments;
  if not (has "analyze:") then fail "%s: no optimizer analyze span" path;
  if not (has "layout:") then fail "%s: no optimizer layout span" path;
  Printf.printf "check_obs: %s ok (%d spans)\n" path (List.length events)

let () =
  set_tool "check_obs";
  match Array.to_list Sys.argv with
  | [ _; "stream"; path ] -> check_stream path
  | [ _; "serve"; metrics; serve ] -> check_serve metrics serve
  | _ :: metrics :: trace :: experiments
    when metrics <> "stream" && metrics <> "serve" ->
    check_metrics metrics;
    check_trace trace ~experiments
  | _ ->
    prerr_endline
      "usage: check_obs stream FILE.jsonl | check_obs serve METRICS.json SERVE.json | \
       check_obs METRICS.json TRACE.json [EXPERIMENT_ID...]";
    exit 2
