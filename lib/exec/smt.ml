open Colayout_util
open Colayout_cache

type config = {
  cache : Params.t;
  prefetch : Prefetch.t option;
  width : float;
  ilp : float;
  miss_penalty : int;
}

let default_config ?prefetch () =
  { cache = Params.default_l1i; prefetch; width = 4.0; ilp = 3.2; miss_penalty = 8 }

type code = {
  layout : Icache.layout;
  instr_counts : int array;
}

type thread_stats = {
  instrs : int;
  cycles : int;
  fetch_accesses : int;
  fetch_misses : int;
  blocks : int;
}

let ipc s = if s.cycles = 0 then 0.0 else float_of_int s.instrs /. float_of_int s.cycles

let miss_ratio s =
  if s.fetch_accesses = 0 then 0.0
  else float_of_int s.fetch_misses /. float_of_int s.fetch_accesses

type thread = {
  code : code;
  trace : Int_vec.t;
  tid : int;
  line_offset : int;
  restart : bool;
  work_scale : float;
  mutable pos : int;
  mutable work : float; (* instructions left in the current block *)
  mutable stall : int;
  mutable done_ : bool;
  mutable finish_cycle : int;
  mutable instrs : int;
  mutable blocks : int;
}

let make_thread ?(work_scale = 1.0) code trace ~tid ~line_offset ~restart =
  if work_scale <= 0.0 then invalid_arg "Smt: work_scale must be positive";
  {
    code;
    trace;
    tid;
    line_offset;
    restart;
    work_scale;
    pos = 0;
    work = 0.0;
    stall = 0;
    done_ = Int_vec.length trace = 0;
    finish_cycle = 0;
    instrs = 0;
    blocks = 0;
  }

(* Fetch the next block of [th] through the shared cache: each line is one
   {!Icache.access} (counted in [stats] under the thread's id, attributed
   to [sink], prefetching per [cfg]); a miss charges the stall. Loads the
   block's work. Returns false when the trace is exhausted and the thread
   does not restart. *)
let advance_block cfg cache stats sink th ~cycle =
  if th.pos >= Int_vec.length th.trace then begin
    if th.restart then th.pos <- 0
    else begin
      th.done_ <- true;
      th.finish_cycle <- cycle
    end
  end;
  if th.done_ then false
  else begin
    let bid = Int_vec.get th.trace th.pos in
    th.pos <- th.pos + 1;
    th.blocks <- th.blocks + 1;
    let first, last = Icache.lines_of_block ~params:cfg.cache ~layout:th.code.layout bid in
    for line = first to last do
      if
        not
          (Icache.access ?prefetch:cfg.prefetch ?sink cache stats ~thread:th.tid ~block:bid
             (line + th.line_offset))
      then th.stall <- th.stall + cfg.miss_penalty
    done;
    th.work <- th.work +. (float_of_int th.code.instr_counts.(bid) *. th.work_scale);
    th.instrs <- th.instrs + th.code.instr_counts.(bid);
    true
  end

let run_threads cfg sink threads ~stop =
  let cache = Set_assoc.create cfg.cache in
  let stats = Cache_stats.create ~threads:(Array.length threads) () in
  let cycle = ref 0 in
  (* Prime each thread with its first block. *)
  Array.iter
    (fun th -> if not th.done_ then ignore (advance_block cfg cache stats sink th ~cycle:0))
    threads;
  let guard = ref 0 in
  while (not (stop threads)) && !guard < 4_000_000_000 do
    incr guard;
    incr cycle;
    let active =
      Array.fold_left
        (fun n th -> if (not th.done_) && th.stall = 0 then n + 1 else n)
        0 threads
    in
    Array.iter
      (fun th ->
        if not th.done_ then begin
          if th.stall > 0 then th.stall <- th.stall - 1
          else begin
            let share = cfg.width /. float_of_int (max 1 active) in
            let rate = Float.min cfg.ilp share in
            th.work <- th.work -. rate;
            (* A fast thread can finish several short blocks in one cycle;
               keep fetching until work is pending or a miss stalls it. *)
            let continue = ref (th.work <= 0.0) in
            while !continue do
              if not (advance_block cfg cache stats sink th ~cycle:!cycle) then continue := false
              else if th.stall > 0 || th.work > 0.0 then continue := false
            done
          end
        end)
      threads
  done;
  (!cycle, stats)

let stats_of th (total_cycles, stats) =
  {
    instrs = th.instrs;
    cycles = (if th.done_ then th.finish_cycle else total_cycles);
    fetch_accesses = Cache_stats.thread_accesses stats th.tid;
    fetch_misses = Cache_stats.thread_misses stats th.tid;
    blocks = th.blocks;
  }

let solo ?work_scale ?sink cfg code trace =
  let th = make_thread ?work_scale code trace ~tid:0 ~line_offset:0 ~restart:false in
  stats_of th (run_threads cfg sink [| th |] ~stop:(fun ths -> ths.(0).done_))

type corun_mode = Finish_both | Measure_first

type corun_result = {
  t0 : thread_stats;
  t1 : thread_stats;
  total_cycles : int;
}

let corun ?(work_scales = (1.0, 1.0)) ?sink cfg ~mode (code0, trace0) (code1, trace1) =
  let offset = 1 lsl 40 in
  let ws0, ws1 = work_scales in
  let restart1 = match mode with Measure_first -> true | Finish_both -> false in
  let th0 = make_thread ~work_scale:ws0 code0 trace0 ~tid:0 ~line_offset:0 ~restart:false in
  let th1 = make_thread ~work_scale:ws1 code1 trace1 ~tid:1 ~line_offset:offset ~restart:restart1 in
  let stop =
    match mode with
    | Finish_both -> fun (ths : thread array) -> ths.(0).done_ && ths.(1).done_
    | Measure_first -> fun ths -> ths.(0).done_
  in
  let run = run_threads cfg sink [| th0; th1 |] ~stop in
  { t0 = stats_of th0 run; t1 = stats_of th1 run; total_cycles = fst run }
