(* Parallel-harness smoke validator:

   [check_parallel csv-equal DIR1 DIR2] — two `repro run --csv` output
   directories (a jobs=1 and a jobs=N run of the same experiments) hold
   byte-identical files. *)

open Smoke_check

let check_csv_equal dir1 dir2 =
  let listing dir =
    match Sys.readdir dir with
    | files ->
      Array.sort compare files;
      Array.to_list files
    | exception Sys_error e -> fail "cannot list %s: %s" dir e
  in
  let a = listing dir1 and b = listing dir2 in
  if a <> b then
    fail "%s and %s hold different file sets (%d vs %d files)" dir1 dir2 (List.length a)
      (List.length b);
  if a = [] then fail "%s is empty" dir1;
  List.iter
    (fun f ->
      let pa = Filename.concat dir1 f and pb = Filename.concat dir2 f in
      if read_file pa <> read_file pb then fail "%s differs between %s and %s" f dir1 dir2)
    a;
  Printf.printf "check_parallel: %s == %s (%d files byte-identical)\n" dir1 dir2
    (List.length a)

let () =
  set_tool "check_parallel";
  match Array.to_list Sys.argv with
  | [ _; "csv-equal"; dir1; dir2 ] -> check_csv_equal dir1 dir2
  | _ ->
    prerr_endline "usage: check_parallel csv-equal DIR1 DIR2";
    exit 2
