open Colayout_util

type layout = {
  addr : int array;
  bytes : int array;
}

let lines_of_block ~params ~layout bid =
  Params.lines_spanned params ~addr:layout.addr.(bid) ~bytes:layout.bytes.(bid)

(* The one demand-access routine of every replay: the LRU core, then the
   stats, the optional sink and, on a miss, the optional next-line
   prefetch. A fill's victim is reported to the sink as an eviction by the
   prefetching thread, so the interference matrices conserve in hw mode. *)
let access ?prefetch ?sink cache stats ~thread ~block line =
  let r = Set_assoc.access cache line in
  let hit = r = Set_assoc.hit in
  Cache_stats.record stats ~thread ~hit;
  (match sink with
  | None -> ()
  | Some s -> Profile_sink.record s ~thread ~block ~line ~hit ~victim:(if hit then -1 else r));
  (match prefetch with
  | Some p when not hit ->
    for l = line + 1 to line + Prefetch.degree p do
      if not (Set_assoc.probe_line cache l) then begin
        let victim = Set_assoc.fill_line cache l in
        Cache_stats.record_prefetch stats;
        match sink with
        | None -> ()
        | Some s -> Profile_sink.record_fill s ~thread ~block ~line:l ~victim
      end
    done
  | _ -> ());
  hit

let solo ?prefetch ?sink ~params ~layout trace =
  let cache = Set_assoc.create params in
  let stats = Cache_stats.create ~threads:1 () in
  Int_vec.iter
    (fun bid ->
      let first, last = lines_of_block ~params ~layout bid in
      for line = first to last do
        ignore (access ?prefetch ?sink cache stats ~thread:0 ~block:bid line)
      done)
    trace;
  Cache_stats.set_evictions stats (Set_assoc.evictions cache);
  stats

(* One SMT hardware thread's walk over its block trace, exposed one cache
   line at a time. *)
type cursor = {
  trace : Int_vec.t;
  layout : layout;
  line_offset : int;
  mutable pos : int; (* index into trace *)
  mutable cur_block : int; (* block the next line belongs to *)
  mutable cur_line : int; (* next line to fetch *)
  mutable last_line : int; (* last line of current block, < cur_line when spent *)
  mutable passes : int;
}

let cursor_make trace layout ~line_offset =
  {
    trace;
    layout;
    line_offset;
    pos = 0;
    cur_block = -1;
    cur_line = 0;
    last_line = -1;
    passes = 0;
  }

(* The next line (offset into the thread's address region) to fetch;
   [-1] only for an empty trace. *)
let rec cursor_next ~params c =
  if c.cur_line <= c.last_line then begin
    let l = c.cur_line in
    c.cur_line <- l + 1;
    l + c.line_offset
  end
  else if c.pos < Int_vec.length c.trace then begin
    let bid = Int_vec.get c.trace c.pos in
    c.pos <- c.pos + 1;
    let first, last = lines_of_block ~params ~layout:c.layout bid in
    c.cur_block <- bid;
    c.cur_line <- first;
    c.last_line <- last;
    cursor_next ~params c
  end
  else begin
    (* Completed a pass; restart so the peer keeps creating contention. *)
    c.passes <- c.passes + 1;
    if Int_vec.length c.trace = 0 then -1
    else begin
      c.pos <- 0;
      cursor_next ~params c
    end
  end

let shared ?prefetch ?sink ?(rates = (1.0, 1.0)) ~params ~layouts (t0, t1) =
  let r0, r1 = rates in
  if r0 <= 0.0 || r1 <= 0.0 then invalid_arg "Icache.shared: rates must be positive";
  let l0, l1 = layouts in
  let cache = Set_assoc.create params in
  let stats = Cache_stats.create ~threads:2 () in
  (* Offset thread 1 into a distinct, set-alignment-preserving address
     region: distinct processes cannot share lines, but their set mapping is
     what it would be solo. *)
  let offset_lines = 1 lsl 40 in
  let c0 = cursor_make t0 l0 ~line_offset:0 in
  let c1 = cursor_make t1 l1 ~line_offset:offset_lines in
  let finished c = c.passes >= 1 in
  let step cursor ~thread =
    let line = cursor_next ~params cursor in
    if line >= 0 then
      ignore (access ?prefetch ?sink cache stats ~thread ~block:cursor.cur_block line)
  in
  (* Both threads keep fetching (restarting at end of trace) until each has
     completed at least one full pass, so neither runs contention-free.
     Credit accounting delivers [r] line fetches per step per thread. *)
  let credit0 = ref 0.0 and credit1 = ref 0.0 in
  while not (finished c0 && finished c1) do
    credit0 := !credit0 +. r0;
    credit1 := !credit1 +. r1;
    while !credit0 >= 1.0 do
      credit0 := !credit0 -. 1.0;
      step c0 ~thread:0
    done;
    while !credit1 >= 1.0 do
      credit1 := !credit1 -. 1.0;
      step c1 ~thread:1
    done
  done;
  Cache_stats.set_evictions stats (Set_assoc.evictions cache);
  stats
