(* Command-line driver for the reproduction experiments.

   `repro list` shows the experiment registry; `repro run all` regenerates
   every table and figure of the paper. *)

open Cmdliner
module H = Colayout_harness
module U = Colayout_util
module Table = Colayout_util.Table

let scale_conv =
  let parse = function
    | "fast" -> Ok H.Ctx.Fast
    | "full" -> Ok H.Ctx.Full
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (fast|full)" s))
  in
  let print ppf s =
    Format.pp_print_string ppf (match s with H.Ctx.Fast -> "fast" | H.Ctx.Full -> "full")
  in
  Arg.conv (parse, print)

let verbosity_conv =
  let parse s =
    match H.Report.verbosity_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown verbosity %S (quiet|normal|debug)" s))
  in
  let print ppf v = Format.pp_print_string ppf (H.Report.verbosity_to_string v) in
  Arg.conv (parse, print)

let verbosity_arg =
  Arg.(
    value
    & opt verbosity_conv H.Report.Normal
    & info [ "verbosity" ] ~docv:"LEVEL" ~doc:"Stderr chatter: quiet, normal or debug")

(* Write [contents] to [path], creating parent directories as needed. *)
let write_file path contents =
  U.Fsutil.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun (e : H.Registry.experiment) ->
        Printf.printf "%-8s %-16s %s\n" e.id e.paper_ref e.summary)
      H.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let write_csv dir id tables =
  U.Fsutil.mkdir_p dir;
  List.iteri
    (fun i t ->
      let path = Filename.concat dir (Printf.sprintf "%s_%d.csv" id i) in
      let oc = open_out path in
      output_string oc (Table.to_csv t);
      output_char oc '\n';
      close_out oc)
    tables

let run_cmd =
  let doc = "Run experiments (ids or 'all') and print their tables." in
  let ids =
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids")
  in
  let scale =
    Arg.(
      value
      & opt scale_conv H.Ctx.Full
      & info [ "scale" ] ~docv:"SCALE" ~doc:"Simulation scale: fast or full")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv)")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write a JSON metrics snapshot (memo hit/miss, interp and cache counters)")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the run's spans (loadable by \
             chrome://tracing / Perfetto)")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel experiment fan-out. 1 (the default) runs \
             sequentially on the calling domain; 0 picks the machine width \
             (recommended_domain_count - 1). Tables are byte-identical at any $(docv).")
  in
  let run ids scale csv metrics_out trace_out jobs verbosity =
    H.Report.setup verbosity;
    let requested =
      if List.mem "all" ids then H.Registry.ids else ids
    in
    let jobs =
      if jobs = 0 then U.Pool.default_jobs ()
      else if jobs < 0 then (
        Printf.eprintf "repro run: --jobs must be >= 0\n";
        exit 1)
      else jobs
    in
    let metrics = U.Metrics.create () in
    U.Pool.with_pool ~jobs ~metrics (fun pool ->
        let ctx = H.Ctx.create ~scale ~metrics ~pool () in
        let results = H.Registry.run_by_ids ctx requested in
        List.iter
          (fun (id, tables) ->
            List.iter Table.print tables;
            Option.iter (fun dir -> write_csv dir id tables) csv)
          results;
        Option.iter
          (fun path ->
            write_file path
              (U.Json.to_string ~pretty:true (U.Metrics.to_json (H.Ctx.metrics ctx))))
          metrics_out;
        Option.iter
          (fun path ->
            write_file path
              (U.Json.to_string ~pretty:true (U.Span.to_chrome_json (H.Ctx.spans ctx))))
          trace_out)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ ids $ scale $ csv $ metrics_out $ trace_out $ jobs $ verbosity_arg)

module W = Colayout_workloads
module Core = Colayout
module E = Colayout_exec

let prog_arg =
  let doc = "Analog program name (see `repro programs`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let build_program name =
  try W.Spec.build name
  with Not_found ->
    Printf.eprintf "unknown program %S; run `repro programs` for the list\n" name;
    exit 1

let programs_cmd =
  let doc = "List the 29 SPEC CPU2006 analog programs and their shapes." in
  let run () =
    let t =
      Table.create ~title:"SPEC CPU2006 analog programs"
        ~columns:
          [
            ("program", Table.Left);
            ("style", Table.Left);
            ("functions", Table.Right);
            ("blocks", Table.Right);
            ("static bytes", Table.Right);
            ("hot bytes (est)", Table.Right);
            ("fetch rate", Table.Right);
          ]
    in
    List.iter
      (fun name ->
        let profile = W.Spec.profile name in
        let p = W.Spec.build name in
        let style =
          match profile.W.Gen.style with
          | W.Gen.Phased -> Printf.sprintf "phased x%d" profile.W.Gen.phases
          | W.Gen.Dispatch { table; _ } -> Printf.sprintf "dispatch/%d" table
        in
        Table.add_row t
          [
            name;
            style;
            string_of_int (Colayout_ir.Program.num_funcs p);
            string_of_int (Colayout_ir.Program.num_blocks p);
            Table.fmt_int (Colayout_ir.Program.total_code_bytes p);
            Table.fmt_int (W.Gen.hot_code_bytes profile);
            Printf.sprintf "%.2f" profile.W.Gen.fetch_rate;
          ])
      W.Spec.names;
    Table.print t
  in
  Cmd.v (Cmd.info "programs" ~doc) Term.(const run $ const ())

let kind_arg =
  let doc = "Optimizer: original, func-affinity, bb-affinity, func-trg, bb-trg." in
  Arg.(
    value
    & pos 1 string "bb-affinity"
    & info [] ~docv:"OPTIMIZER" ~doc)

let layout_cmd =
  let doc = "Compute a layout for a program and summarize it." in
  let limit =
    Arg.(value & opt int 24 & info [ "limit" ] ~docv:"N" ~doc:"Blocks of the order to print")
  in
  let run name kind_name limit =
    let kind =
      match Core.Optimizer.kind_of_name kind_name with
      | Some k -> k
      | None ->
        Printf.eprintf "unknown optimizer %S\n" kind_name;
        exit 1
    in
    let program = build_program name in
    let analysis = Core.Optimizer.analyze program (E.Interp.test_input ()) in
    let layout = Core.Optimizer.layout_for kind program analysis in
    Printf.printf "%s under %s: %s bytes, %d fixup jumps\n" name kind_name
      (Table.fmt_int layout.Core.Layout.total_bytes)
      layout.Core.Layout.added_jumps;
    Printf.printf "first %d blocks of the order:\n" limit;
    Array.iteri
      (fun i bid ->
        if i < limit then
          let b = Colayout_ir.Program.block program bid in
          Printf.printf "  %6d  %-28s %4dB  f%d\n" layout.Core.Layout.addr.(bid)
            b.Colayout_ir.Program.name b.Colayout_ir.Program.size_bytes
            b.Colayout_ir.Program.fn)
      layout.Core.Layout.order
  in
  Cmd.v (Cmd.info "layout" ~doc) Term.(const run $ prog_arg $ kind_arg $ limit)

let trace_cmd =
  let doc = "Instrument a program and save its traces and mapping files (the §II-F artifacts)." in
  let out =
    Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR" ~doc:"Output directory")
  in
  let fuel =
    Arg.(value & opt int 200_000 & info [ "fuel" ] ~docv:"N" ~doc:"Block-execution budget")
  in
  let run name out fuel =
    let program = build_program name in
    let r = E.Interp.run program (E.Interp.test_input ~max_blocks:fuel ()) in
    U.Fsutil.mkdir_p out;
    let short = W.Spec.short_name name in
    let bb_path = Filename.concat out (short ^ ".bb.trc") in
    let fn_path = Filename.concat out (short ^ ".fn.trc") in
    let map_path = Filename.concat out (short ^ ".map") in
    Colayout_trace.Trace_io.save ~path:bb_path r.E.Interp.bb_trace;
    Colayout_trace.Trace_io.save ~path:fn_path r.E.Interp.fn_trace;
    Colayout_trace.Trace_io.save_mapping ~path:map_path
      ~names:
        (Array.map
           (fun (b : Colayout_ir.Program.block) -> b.Colayout_ir.Program.name)
           (Colayout_ir.Program.blocks program));
    Printf.printf "wrote %s (%d events), %s (%d events), %s (%d symbols)\n" bb_path
      (Colayout_trace.Trace.length r.E.Interp.bb_trace)
      fn_path
      (Colayout_trace.Trace.length r.E.Interp.fn_trace)
      map_path
      (Colayout_ir.Program.num_blocks program)
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ prog_arg $ out $ fuel)

let dump_ir_cmd =
  let doc = "Print a program's textual IR (parseable back with parse-ir)." in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write to file")
  in
  let run name out =
    let program = build_program name in
    let text = Colayout_ir.Ir_text.print program in
    match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
  in
  Cmd.v (Cmd.info "dump-ir" ~doc) Term.(const run $ prog_arg $ out)

let parse_ir_cmd =
  let doc = "Parse a textual-IR file, validate it, and report its shape." in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Textual IR file")
  in
  let run path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    match Colayout_ir.Ir_text.parse text with
    | p ->
      Printf.printf "%s: OK — %d functions, %d blocks, %s bytes of code\n"
        (Colayout_ir.Program.name p)
        (Colayout_ir.Program.num_funcs p)
        (Colayout_ir.Program.num_blocks p)
        (Table.fmt_int (Colayout_ir.Program.total_code_bytes p))
    | exception Colayout_ir.Ir_text.Parse_error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" path line msg;
      exit 1
  in
  Cmd.v (Cmd.info "parse-ir" ~doc) Term.(const run $ file)

let strip_cmd =
  let doc = "Residual code elimination (§II-E post-processing) report for a program." in
  let run name =
    let program = build_program name in
    let _, _, report = Core.Residual.eliminate program in
    Printf.printf
      "%s: removed %d of %d blocks (%s bytes) and %d never-called functions\n" name
      report.Core.Residual.removed_blocks
      (Colayout_ir.Program.num_blocks program)
      (Table.fmt_int report.Core.Residual.removed_bytes)
      report.Core.Residual.removed_funcs
  in
  Cmd.v (Cmd.info "strip" ~doc) Term.(const run $ prog_arg)

let profile_cmd =
  let doc =
    "Profile cache behavior under a layout: per-block miss attribution, \
     cold/capacity/conflict classification, per-set pressure and the optimizer's decision \
     trace, written as a colayout/profile/v1 JSON artifact."
  in
  let out =
    Arg.(
      value & opt string "profile.json" & info [ "out" ] ~docv:"FILE" ~doc:"Output artifact path")
  in
  let top =
    Arg.(
      value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Conflict-missing blocks listed per layout")
  in
  let decisions_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "decisions" ] ~docv:"FILE"
          ~doc:"Also write the optimizer's full decision trace as JSONL to $(docv)")
  in
  let scale =
    Arg.(
      value
      & opt scale_conv H.Ctx.Full
      & info [ "scale" ] ~docv:"SCALE" ~doc:"Simulation scale: fast or full")
  in
  let run name kind_name out top decisions_out scale verbosity =
    H.Report.setup verbosity;
    let kind =
      match Core.Optimizer.kind_of_name kind_name with
      | Some k -> k
      | None ->
        Printf.eprintf "unknown optimizer %S\n" kind_name;
        exit 1
    in
    if not (List.mem name W.Spec.names) then begin
      Printf.eprintf "unknown program %S; run `repro programs` for the list\n" name;
      exit 1
    end;
    let ctx = H.Ctx.create ~scale () in
    let p = H.Ctx.program ctx name in
    let block_name bid =
      if bid >= 0 && bid < Colayout_ir.Program.num_blocks p then
        (Colayout_ir.Program.block p bid).Colayout_ir.Program.name
      else Printf.sprintf "b%d" bid
    in
    let base_stats, base_sink = H.Ctx.profiled_solo ctx ~hw:false name Core.Optimizer.Original in
    let layouts =
      { Colayout_cache.Profile.label = "original"; sink = base_sink; stats = base_stats }
      ::
      (if kind = Core.Optimizer.Original then []
       else begin
         let stats, sink = H.Ctx.profiled_solo ctx ~hw:false name kind in
         [ { Colayout_cache.Profile.label = kind_name; sink; stats } ]
       end)
    in
    (* Replay the layout decision for the trace: the layout itself is
       memoized above, so this second pass costs one optimizer run. *)
    let dec =
      if kind = Core.Optimizer.Original then None
      else begin
        let trace = Core.Decision_trace.create () in
        ignore
          (Core.Optimizer.layout_for ~decisions:trace ~config:(H.Ctx.opt_config ctx) kind p
             (H.Ctx.analysis ctx name));
        Some trace
      end
    in
    let decision_counts =
      match dec with None -> [] | Some d -> Core.Decision_trace.counts_by_action d
    in
    let json =
      Colayout_cache.Profile.to_json ~top ~block_name ~decisions:decision_counts ~program:name
        ~params:(H.Ctx.params ctx) ~layouts ()
    in
    write_file out (U.Json.to_string ~pretty:true json);
    Option.iter
      (fun path ->
        match dec with
        | None -> Printf.eprintf "--decisions: no decision trace for the original layout\n"
        | Some d ->
          U.Fsutil.mkdir_p (Filename.dirname path);
          let oc = open_out path in
          output_string oc (Core.Decision_trace.to_jsonl d);
          close_out oc;
          Printf.printf "wrote %s (%d decisions)\n" path (Core.Decision_trace.count d))
      decisions_out;
    let t =
      Table.create
        ~title:(Printf.sprintf "cache profile: %s" name)
        ~columns:
          [
            ("layout", Table.Left);
            ("accesses", Table.Right);
            ("misses", Table.Right);
            ("cold", Table.Right);
            ("capacity", Table.Right);
            ("conflict", Table.Right);
            ("evictions", Table.Right);
          ]
    in
    List.iter
      (fun lp ->
        let s = lp.Colayout_cache.Profile.sink in
        Table.add_row t
          [
            lp.Colayout_cache.Profile.label;
            Table.fmt_int (Colayout_cache.Profile_sink.accesses s);
            Table.fmt_int (Colayout_cache.Profile_sink.misses s);
            Table.fmt_int (Colayout_cache.Profile_sink.cold_misses s);
            Table.fmt_int (Colayout_cache.Profile_sink.capacity_misses s);
            Table.fmt_int (Colayout_cache.Profile_sink.conflict_misses s);
            Table.fmt_int (Colayout_cache.Profile_sink.evictions s);
          ])
      layouts;
    Table.print t;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ prog_arg $ kind_arg $ out $ top $ decisions_out $ scale $ verbosity_arg)

let serve_cmd =
  let doc =
    "Run the streaming profile-ingest service: thousands of synthetic users drawn from a \
     workload's input distribution, folded into sharded online TRG/affinity accumulators \
     with epoch-based consensus merges and incremental layout re-optimization."
  in
  let users =
    Arg.(value & opt int 256 & info [ "users" ] ~docv:"N" ~doc:"Synthetic user traces to ingest")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed") in
  let fuel =
    Arg.(
      value
      & opt int 4_000
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Max block-execution budget per user (each user draws from [fuel/2, fuel])")
  in
  let shards =
    Arg.(
      value
      & opt int 2
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Partitions of each walker's tables that --trg-cap and --wits-cap apply to; \
             exact-config digests are byte-identical at any $(docv).")
  in
  let walkers =
    Arg.(
      value
      & opt int 1
      & info [ "walkers" ] ~docv:"W"
          ~doc:
            "Parallel ingest walkers: completed traces partition round-robin across $(docv) \
             independent LRU walker states merged algebraically at finalize; 0 picks the \
             machine width. Exact-config digests are byte-identical at any $(docv).")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for user generation and multi-walker dispatch; 0 picks the \
             machine width. Results are byte-identical at any $(docv).")
  in
  let window =
    Arg.(value & opt int 64 & info [ "window" ] ~docv:"W" ~doc:"TRG LRU window (distinct blocks)")
  in
  let w_arg =
    Arg.(value & opt int 16 & info [ "w" ] ~docv:"W" ~doc:"Affinity window footprint bound")
  in
  let epoch =
    Arg.(
      value
      & opt int 16
      & info [ "epoch" ] ~docv:"N" ~doc:"Traces per maintenance/re-optimization epoch; 0 = never")
  in
  let trg_cap =
    Arg.(
      value
      & opt int 0
      & info [ "trg-cap" ] ~docv:"N" ~doc:"Per-shard TRG edge cap (bounded memory); 0 = unbounded")
  in
  let wits_cap =
    Arg.(
      value
      & opt int 0
      & info [ "wits-cap" ] ~docv:"N" ~doc:"Per-shard witness cap (bounded memory); 0 = unbounded")
  in
  let decay =
    Arg.(
      value
      & opt int 0
      & info [ "decay" ] ~docv:"SHIFT" ~doc:"TRG weight decay per epoch (lsr $(docv)); 0 = off")
  in
  let reopt =
    Arg.(
      value
      & opt int 120
      & info [ "reopt-steps" ] ~docv:"N" ~doc:"Anneal steps per epoch re-optimization; 0 = off")
  in
  let verify =
    Arg.(
      value
      & flag
      & info [ "verify" ]
          ~doc:
            "Also run the batch kernels on the concatenated trace and check the consensus \
             digests match (exact configs only: caps and decay off)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the colayout/serve/v1 JSON summary to $(docv)")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:"Write a JSON metrics snapshot")
  in
  let obs_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs" ] ~docv:"FILE"
          ~doc:
            "Stream per-epoch colayout/obs/v1 snapshots (interference matrix, drift, latency \
             percentiles, GC) as JSON lines to $(docv), flushed as they happen — tail it \
             live with `repro monitor $(docv) --follow`")
  in
  let from_paths =
    Arg.(
      value
      & opt_all string []
      & info [ "from" ] ~docv:"PATH"
          ~doc:
            "Ingest saved traces instead of generating synthetic users (repeatable). A file \
             is streamed once through the chunked reader; a directory is watched as a live \
             spool — new .trc/.trace files are ingested as they land until --timeout \
             elapses. PROGRAM is ignored for sizing; the symbol universe comes from the \
             first trace found.")
  in
  let timeout =
    Arg.(
      value
      & opt float 0.0
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "With --from DIR: watch the spool for $(docv) seconds, then exit cleanly (0 = \
             one stable sweep of the files already present).")
  in
  let poll_ms =
    Arg.(
      value
      & opt int 50
      & info [ "poll-ms" ] ~docv:"MS" ~doc:"Spool poll interval for --from DIR watching")
  in
  let serve_from paths ~walkers ~shards ~jobs ~window ~w ~epoch ~trg_cap ~wits_cap ~decay
      ~timeout ~poll_ms ~metrics_out =
    List.iter
      (fun p ->
        if not (Sys.file_exists p) then begin
          Printf.eprintf "repro serve: --from %s: no such file or directory\n" p;
          exit 1
        end)
      paths;
    let dirs, files = List.partition Sys.is_directory paths in
    (* A bad trace file is the user's input, not an internal error: name
       it, give the reader's reason and exit 1. *)
    let bad_file path msg =
      Printf.eprintf "repro serve: %s: %s\n" path msg;
      exit 1
    in
    let num_symbols =
      match files with
      | f :: _ -> (
        match
          Colayout_trace.Trace_io.with_reader ~path:f Colayout_trace.Trace_io.reader_num_symbols
        with
        | n -> n
        | exception Failure msg -> bad_file f msg)
      | [] -> (
        (* Empty spool: wait (within the watch budget) for the first trace
           file to land so the symbol universe can size the config. *)
        match H.Serve.wait_spool_symbols ~dirs ~poll_ms ~timeout_s:timeout () with
        | Some n -> n
        | None ->
          Printf.eprintf "repro serve: no readable trace file appeared in the spool within \
                          --timeout %.3fs\n"
            timeout;
          exit 1)
    in
    let metrics = U.Metrics.create () in
    let exception Bad_file of string * string in
    match
      U.Pool.with_pool ~jobs ~metrics (fun pool ->
          let cfg =
            Core.Ingest.config ~num_symbols ~walkers ~shards ~trg_window:window ~affinity_w:w
              ~trg_cap ~wits_cap ~decay_shift:decay ~epoch_traces:epoch ()
          in
          let ing = Core.Ingest.create ~pool ~metrics cfg in
          List.iter
            (fun path ->
              try Core.Ingest.feed_file ing ~path
              with Failure msg | Invalid_argument msg -> raise (Bad_file (path, msg)))
            files;
          let report =
            if dirs = [] then None
            else
              Some (H.Serve.watch_spool ~ing ~dirs ~poll_ms ~skip:files ~timeout_s:timeout ())
          in
          let c = Core.Ingest.finalize ing in
          let td, ad = Core.Ingest.consensus_digests c in
          let s = Core.Ingest.stats ing in
          (match report with
          | Some r ->
            Printf.printf "spool: %d polls, %d files ingested, %d skipped, %d pending\n"
              r.H.Serve.sp_polls r.H.Serve.sp_ingested r.H.Serve.sp_skipped
              (List.length r.H.Serve.sp_pending)
          | None -> ());
          Printf.printf
            "ingested %d traces (%d events, %d kept) across %d walkers\n\
             trg: %d live edges  affinity: %d pairs\n\
             digests: trg=%s affine=%s\n"
            s.Core.Ingest.traces s.Core.Ingest.events s.Core.Ingest.kept_events walkers
            s.Core.Ingest.trg_live
            (Array.length c.Core.Ingest.affine)
            td ad;
          Option.iter
            (fun path ->
              write_file path (U.Json.to_string ~pretty:true (U.Metrics.to_json metrics)))
            metrics_out)
    with
    | () -> ()
    | exception Bad_file (path, msg) -> bad_file path msg
  in
  let run name users seed fuel walkers shards jobs window w epoch trg_cap wits_cap decay reopt
      verify out metrics_out obs_out from_paths timeout poll_ms verbosity =
    H.Report.setup verbosity;
    let jobs =
      if jobs = 0 then U.Pool.default_jobs ()
      else if jobs < 0 then (
        Printf.eprintf "repro serve: --jobs must be >= 0\n";
        exit 1)
      else jobs
    in
    let walkers =
      if walkers = 0 then U.Pool.default_jobs ()
      else if walkers < 0 then (
        Printf.eprintf "repro serve: --walkers must be >= 0\n";
        exit 1)
      else walkers
    in
    if from_paths <> [] then
      serve_from from_paths ~walkers ~shards ~jobs ~window ~w ~epoch ~trg_cap ~wits_cap ~decay
        ~timeout ~poll_ms ~metrics_out
    else begin
      if not (List.mem name W.Spec.names) then begin
        Printf.eprintf "unknown program %S; run `repro programs` for the list\n" name;
        exit 1
      end;
      let cfg =
        H.Serve.config ~users ~seed ~fuel ~walkers ~shards ~trg_window:window ~affinity_w:w
          ~trg_cap ~wits_cap ~decay_shift:decay ~epoch_traces:epoch ~reopt_steps:reopt ~verify
          ~program:name ()
      in
      let metrics = U.Metrics.create () in
      (* The obs stream is written line-at-a-time with an explicit flush so
         a `repro monitor --follow` on the same file sees epochs live. *)
      let obs_chan =
        Option.map
          (fun path ->
            U.Fsutil.mkdir_p (Filename.dirname path);
            open_out path)
          obs_out
      in
      let obs =
        Option.map
          (fun oc ->
            let o = U.Obs.create () in
            U.Obs.set_stream o
              (Some
                 (fun line ->
                   output_string oc line;
                   output_char oc '\n';
                   flush oc));
            o)
          obs_chan
      in
      U.Pool.with_pool ~jobs ~metrics (fun pool ->
          let summary = H.Serve.run ~pool ~metrics ?obs cfg in
          let s = summary.H.Serve.stats in
          Printf.printf
            "%s: %d users, %d walkers, %d shards, %d jobs\n\
             ingested %s events (%s kept) in %.2fs wall  |  %.0f traces/s, %s events/s, %s \
             edge-ops/s\n\
             trg: %d live (peak/shard %d)  wits: %d live (peak/shard %d)  evicted %d+%d  \
             pruned %d  decayed %d\n\
             latency: trace p50 %.0fus p95 %.0fus p99 %.0fus  merge p50 %.0fus\n"
            name users walkers shards jobs
            (Table.fmt_int s.Core.Ingest.events)
            (Table.fmt_int s.Core.Ingest.kept_events)
            (float_of_int summary.H.Serve.wall_ns /. 1e9)
            summary.H.Serve.traces_per_sec
            (Table.fmt_int (int_of_float summary.H.Serve.events_per_sec))
            (Table.fmt_int (int_of_float summary.H.Serve.edge_ops_per_sec))
            s.Core.Ingest.trg_live s.Core.Ingest.trg_peak_shard s.Core.Ingest.wits_live
            s.Core.Ingest.wits_peak_shard s.Core.Ingest.trg_evicted s.Core.Ingest.wits_evicted
            s.Core.Ingest.dead_pruned s.Core.Ingest.decay_dropped
            (summary.H.Serve.trace_p50_ns /. 1e3)
            (summary.H.Serve.trace_p95_ns /. 1e3)
            (summary.H.Serve.trace_p99_ns /. 1e3)
            (summary.H.Serve.merge_p50_ns /. 1e3);
          if summary.H.Serve.epoch_rows <> [] then begin
            let t =
              Table.create ~title:"consensus epochs"
                ~columns:
                  [
                    ("epoch", Table.Right);
                    ("at trace", Table.Right);
                    ("trg edges", Table.Right);
                    ("affine pairs", Table.Right);
                    ("miss ratio", Table.Right);
                    ("from", Table.Right);
                  ]
            in
            List.iter
              (fun (r : H.Serve.epoch_row) ->
                Table.add_row t
                  [
                    (string_of_int r.H.Serve.epoch
                    ^ if r.H.Serve.partial then "*" else "");
                    string_of_int r.H.Serve.at_trace;
                    Table.fmt_int r.H.Serve.trg_edges;
                    Table.fmt_int r.H.Serve.affine_pairs;
                    (if Float.is_nan r.H.Serve.miss_ratio then "-"
                     else Printf.sprintf "%.4f" r.H.Serve.miss_ratio);
                    (if Float.is_nan r.H.Serve.improved_from then "-"
                     else Printf.sprintf "%.4f" r.H.Serve.improved_from);
                  ])
              summary.H.Serve.epoch_rows;
            Table.print t
          end;
          (match summary.H.Serve.digests_match with
          | Some true -> Printf.printf "verify: online digests match batch kernels\n"
          | Some false ->
            Printf.eprintf
              "verify: FAILED — online digests diverge from the batch kernels (bounded-memory \
               config?)\n";
            exit 1
          | None -> ());
          Option.iter
            (fun path ->
              write_file path
                (U.Json.to_string ~pretty:true (H.Serve.summary_to_json summary));
              Printf.printf "wrote %s\n" path)
            out;
          Option.iter
            (fun path ->
              write_file path (U.Json.to_string ~pretty:true (U.Metrics.to_json metrics)))
            metrics_out);
      Option.iter close_out obs_chan;
      Option.iter (fun path -> Printf.printf "wrote %s\n" path) obs_out
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ prog_arg $ users $ seed $ fuel $ walkers $ shards $ jobs $ window $ w_arg
      $ epoch $ trg_cap $ wits_cap $ decay $ reopt $ verify $ out $ metrics_out $ obs_out
      $ from_paths $ timeout $ poll_ms $ verbosity_arg)

let monitor_cmd =
  let doc =
    "Render a colayout/obs/v1 snapshot stream (from `repro serve --obs`) as a live table: \
     one row per epoch with miss ratio, drift, the interference totals and the consensus \
     layout's defensiveness/politeness scores."
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Obs JSONL stream")
  in
  let follow =
    Arg.(
      value
      & flag
      & info [ "follow"; "f" ] ~doc:"Keep polling $(i,FILE) for new snapshots (tail -f style)")
  in
  let interval =
    Arg.(
      value
      & opt float 0.5
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Poll period with $(b,--follow)")
  in
  let timeout =
    Arg.(
      value
      & opt float 0.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Stop a $(b,--follow) after $(docv) without new snapshots; 0 waits forever")
  in
  let render_line line =
    match U.Json.parse line with
    | exception _ ->
      Printf.eprintf "monitor: skipping unparseable line\n";
      None
    | json ->
      let get k = U.Json.member k json in
      let num k = Option.bind (get k) U.Json.to_float in
      let int_of k = match Option.bind (get k) U.Json.to_int with Some i -> i | None -> 0 in
      let fmt = function Some f -> Printf.sprintf "%.4f" f | None -> "-" in
      let interference = get "interference" in
      let score field th =
        Option.bind interference (fun i ->
            match U.Json.member field i with
            | Some (U.Json.Arr l) when List.length l > th ->
              U.Json.to_float (List.nth l th)
            | _ -> None)
      in
      let partial =
        match Option.bind (get "partial") U.Json.to_bool with Some true -> "*" | _ -> ""
      in
      Some
        [
          string_of_int (int_of "epoch") ^ partial;
          string_of_int (int_of "at_trace");
          fmt (num "miss_ratio");
          fmt (num "drift");
          fmt (score "defensiveness" 0);
          fmt (score "politeness" 0);
          fmt (score "defensiveness" 1);
          fmt (score "politeness" 1);
        ]
  in
  let run path follow interval timeout =
    if not (Sys.file_exists path) then begin
      Printf.eprintf "monitor: %s does not exist\n" path;
      exit 1
    end;
    let columns =
      [
        ("epoch", Table.Right);
        ("at trace", Table.Right);
        ("miss ratio", Table.Right);
        ("drift", Table.Right);
        ("def(opt)", Table.Right);
        ("pol(opt)", Table.Right);
        ("def(base)", Table.Right);
        ("pol(base)", Table.Right);
      ]
    in
    (* Tail loop: re-open cheaply and remember the byte offset; the writer
       appends whole flushed lines, so a partial last line (no newline yet)
       is left for the next poll. *)
    let offset = ref 0 in
    let rows = ref [] in
    let read_new () =
      let ic = open_in path in
      let len = in_channel_length ic in
      let fresh = ref 0 in
      if len > !offset then begin
        seek_in ic !offset;
        let continue = ref true in
        while !continue do
          match input_line ic with
          | line ->
            if pos_in ic <= len then begin
              (match render_line line with
              | Some r ->
                rows := r :: !rows;
                incr fresh
              | None -> ());
              offset := pos_in ic
            end
            else continue := false
          | exception End_of_file -> continue := false
        done
      end;
      close_in ic;
      !fresh
    in
    let print_table () =
      let t = Table.create ~title:(Printf.sprintf "obs: %s" path) ~columns in
      List.iter (fun r -> Table.add_row t r) (List.rev !rows);
      Table.print t
    in
    let fresh = read_new () in
    ignore fresh;
    print_table ();
    if follow then begin
      let idle = ref 0.0 in
      let stop = ref false in
      while not !stop do
        Unix.sleepf (Float.max 0.05 interval);
        if read_new () > 0 then begin
          idle := 0.0;
          print_table ()
        end
        else begin
          idle := !idle +. interval;
          if timeout > 0.0 && !idle >= timeout then stop := true
        end
      done
    end
  in
  Cmd.v (Cmd.info "monitor" ~doc) Term.(const run $ file $ follow $ interval $ timeout)

let () =
  let doc = "Reproduction of 'Code Layout Optimization for Defensiveness and Politeness in Shared Cache' (ICPP 2014)" in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; programs_cmd; layout_cmd; trace_cmd; strip_cmd; dump_ir_cmd; parse_ir_cmd; profile_cmd; serve_cmd; monitor_cmd ]))
