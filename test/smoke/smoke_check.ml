(* Shared validation vocabulary for the smoke checkers (check_manifest,
   check_obs, check_parallel, check_profile): fail-with-prefix, file reading, JSON
   parsing and schema/field accessors that exit 1 with a pointed message
   instead of raising. Each checker names itself via [set_tool] first. *)

module J = Colayout_util.Json

let tool = ref "smoke_check"

let set_tool name = tool := name

let fail fmt = Printf.ksprintf (fun s -> prerr_endline (!tool ^ ": " ^ s); exit 1) fmt

let read_file path =
  match open_in_bin path with
  | ic ->
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  | exception Sys_error e -> fail "cannot read %s: %s" path e

let parse path =
  match J.parse (read_file path) with
  | v -> v
  | exception J.Parse_error (pos, msg) -> fail "%s does not parse: %s at byte %d" path msg pos

let require_schema json ~path expected =
  match Option.bind (J.member "schema" json) J.to_str with
  | Some s when s = expected -> ()
  | Some s -> fail "%s: schema %S, expected %S" path s expected
  | None -> fail "%s: missing schema (expected %S)" path expected

let get_int json key =
  match Option.bind (J.member key json) J.to_int with
  | Some v -> v
  | None -> fail "missing integer field %S" key

let get_list json ~path key =
  match Option.bind (J.member key json) J.to_list with
  | Some l -> l
  | None -> fail "%s: missing array field %S" path key

let get_obj json ~path key =
  match J.member key json with
  | Some (J.Obj kvs) -> kvs
  | _ -> fail "%s: missing object field %S" path key

let get_str json ~path key =
  match Option.bind (J.member key json) J.to_str with
  | Some s -> s
  | None -> fail "%s: missing string field %S" path key

let get_bool json ~path key =
  match Option.bind (J.member key json) J.to_bool with
  | Some b -> b
  | None -> fail "%s: missing boolean field %S" path key

let has_prefix s prefix =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
