(* Re-run the bench gates on written artifacts:

   [check_manifest FILE...] — each [*.json] file goes through
   [Gates.check] (the same gates [bench/main.exe] ran before writing it)
   and each [*.jsonl] file through [Gates.check_stream]. Exits 1 on the
   first failing gate, naming it. *)

open Smoke_check

let check path =
  let text = read_file path in
  let verdict =
    if Filename.check_suffix path ".jsonl" then Gates.check_stream text
    else
      match Colayout_util.Json.parse text with
      | json -> Gates.check json
      | exception Colayout_util.Json.Parse_error (pos, msg) ->
        Error (Printf.sprintf "parse: %s at byte %d" msg pos)
  in
  match verdict with
  | Ok summary -> Printf.printf "check_manifest: %s ok (%s)\n" path summary
  | Error e -> fail "%s: %s" path e

let () =
  set_tool "check_manifest";
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    prerr_endline "usage: check_manifest FILE...";
    exit 2
  | files -> List.iter check files
