(* Cache-profile smoke validator:

   [check_profile artifact PROFILE.json [DECISIONS.jsonl]] — a
   `repro profile` artifact conforms to colayout/profile/v1: every layout's
   classification sums to its miss total, its per-set histogram columns sum
   to the totals, top_conflict_blocks is present, a delta section compares
   each non-baseline layout, and the decision summary is non-empty. With
   the JSONL path, the decision stream parses line by line, carries the
   colayout/decisions/v1 tag, and its length equals the summary total. *)

module J = Colayout_util.Json
open Smoke_check

let check_classification ~path ~label totals =
  match Gates.classification ~label totals with
  | Ok () -> ()
  | Error e -> fail "%s: %s" path e

let check_layout ~path layout =
  let label = get_str layout ~path "label" in
  let totals = J.Obj (get_obj layout ~path "totals") in
  check_classification ~path ~label totals;
  ignore (get_list layout ~path "top_conflict_blocks");
  let hist = J.Obj (get_obj layout ~path "set_histogram") in
  let sum key =
    List.fold_left
      (fun acc v ->
        match J.to_int v with
        | Some n -> acc + n
        | None -> fail "%s: %s set_histogram.%s holds a non-integer" path label key)
      0
      (get_list hist ~path key)
  in
  List.iter
    (fun key ->
      if sum key <> get_int totals key then
        fail "%s: %s per-set %s do not sum to the layout total" path label key)
    [ "accesses"; "misses"; "evictions" ];
  label

let check_artifact path decisions_path =
  let json = parse path in
  require_schema json ~path "colayout/profile/v1";
  let layouts =
    match get_list json ~path "layouts" with
    | [] -> fail "%s: no layouts" path
    | ls -> ls
  in
  let labels = List.map (check_layout ~path) layouts in
  let deltas = get_list json ~path "delta" in
  if List.length deltas <> List.length layouts - 1 then
    fail "%s: expected %d delta entries, found %d" path
      (List.length layouts - 1)
      (List.length deltas);
  List.iter (fun d -> ignore (get_int d "conflict_reduction" + get_int d "miss_reduction")) deltas;
  let summary = J.Obj (get_obj json ~path "decisions") in
  let total = get_int summary "total" in
  if List.length layouts > 1 && total <= 0 then
    fail "%s: optimized layout present but no decisions recorded" path;
  (match decisions_path with
  | None -> ()
  | Some dpath ->
    let lines =
      String.split_on_char '\n' (read_file dpath) |> List.filter (fun l -> l <> "")
    in
    if List.length lines <> total then
      fail "%s: %d JSONL lines but the artifact counted %d decisions" dpath
        (List.length lines) total;
    List.iteri
      (fun i line ->
        match J.parse line with
        | ev ->
          if i = 0 then require_schema ev ~path:dpath "colayout/decisions/v1";
          ignore (get_int ev "step");
          ignore (get_str ev ~path:dpath "stage");
          ignore (get_str ev ~path:dpath "action")
        | exception J.Parse_error (pos, msg) ->
          fail "%s:%d does not parse: %s at byte %d" dpath (i + 1) msg pos)
      lines);
  Printf.printf "check_profile: %s ok (layouts: %s; %d decisions)\n" path
    (String.concat ", " labels) total

let () =
  set_tool "check_profile";
  match Array.to_list Sys.argv with
  | [ _; "artifact"; path ] -> check_artifact path None
  | [ _; "artifact"; path; decisions ] -> check_artifact path (Some decisions)
  | _ ->
    prerr_endline
      "usage: check_profile artifact PROFILE.json [DECISIONS.jsonl]";
    exit 2
