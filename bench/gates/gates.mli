(** Every bench gate, written once.

    [bench/main.exe] runs {!check} on each manifest before writing it and
    [check_manifest.exe] runs it on manifests it reads, so the writer and
    the checker enforce the same conditions. A gate reads only raw
    measurements and preconditions ([mode], [cores_available]) from the
    artifact: every derived ratio is recomputed from the walls/ns it was
    computed from, the stored copy must agree with it, and thresholds
    live here, never in the artifact.

    Errors read ["<gate-id>: <message>"]; gate ids are
    ["<schema-short-name>.<gate>"], with ["<short>.shape"] for a missing
    or mistyped field. *)

val check : Colayout_util.Json.t -> (string, string) result
(** Dispatch on the manifest's [schema] (the ten [colayout/bench-*/v1]
    schemas) and run all its gates. [Ok summary] or [Error "<gate-id>: …"];
    never raises. *)

val check_stream : string -> (string, string) result
(** A [colayout/obs/v1] JSONL snapshot stream (the obs bench's
    [BENCH_obs.jsonl] or [repro serve --obs]): every line parses, [seq] is
    dense, [ts_ns] is monotonic, and every embedded interference section
    conserves. Never raises. *)

val classification : label:string -> Colayout_util.Json.t -> (unit, string) result
(** One cold/capacity/conflict split: non-negative classes summing to
    [misses], and no more misses than [accesses]. *)
