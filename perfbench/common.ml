(* Shared pieces of the three workloads: the run environment, clocks,
   summary statistics, input seeds and peak memory. *)

module U = Colayout_util

type env = {
  seed : int;  (** Workload seed: every generated input derives from it. *)
  pool : U.Pool.t;
      (** The one pool of the run, pinned to the host's core count; every
          fan-out uses it. *)
  pool_metrics : U.Metrics.t;  (** The pool's [pool.*] counters. *)
}

let clock = U.Metrics.default_clock

let seconds_since t0 = Int64.to_float (Int64.sub (clock ()) t0) /. 1e9

let timed f =
  let t0 = clock () in
  let r = f () in
  (r, seconds_since t0)

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median: empty"
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let geomean xs =
  match xs with
  | [] -> invalid_arg "geomean: empty"
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Bit equality, so a traced or repeated run must reproduce every digit. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Input seeds of the interpreter runs, derived from the workload seed so
   analysis and evaluation never share randomness. *)
let test_seed env = (env.seed * 7919) + 12345

let ref_seed env = (env.seed * 104729) + 987654321

(* Fast-scale fuels of the experiment harness. *)
let test_fuel = 80_000

let ref_fuel = 200_000

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())

(* Programs built and ordered largest first (by block count), so a
   fan-out starts its longest task at once: its wall is then set by the
   work, not by when a stealing worker happens to reach 445.gobmk. *)
let build_largest_first names =
  List.map (fun n -> (n, Colayout_workloads.Spec.build n)) names
  |> List.stable_sort (fun (_, a) (_, b) ->
         compare (Colayout_ir.Program.num_blocks b) (Colayout_ir.Program.num_blocks a))

(* The pool's own fan-out seam, spanned as the [pool] layer when traced. *)
let pool_map rec_ pool f xs =
  Layer.maybe rec_ "pool" ~units:(fun _ -> 0) (fun () -> U.Pool.map pool f xs)

let pool_map_array rec_ pool f xs =
  Layer.maybe rec_ "pool" ~units:(fun _ -> 0) (fun () -> U.Pool.map_array pool f xs)
