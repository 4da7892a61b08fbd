(** Bench-regression comparator: direction-aware structural diff of two
    BENCH_*.json documents (the library behind [tools/benchdiff]).

    Numeric leaves whose relative change exceeds the threshold are
    reported; whether a change gates as a regression depends on the
    metric's direction, inferred from its key (throughput-like keys are
    higher-better; latency / byte / failure-like keys and [_s]/[_bytes]
    suffixes are lower-better; unknown keys never gate).  Structural
    drift — missing fields, type changes, array length mismatches, string
    or boolean changes — is always a regression.  The "wallclock" block
    is skipped, mirroring the determinism checks.  Arrays of objects
    align by their "stage" / "name" / "dist" field when unique, else by
    index. *)

type change = {
  c_path : string;           (** e.g. ["$.stages[persist].runs[1].wall_s"] *)
  c_old : float;
  c_new : float;
  c_delta : float option;    (** relative change; [None] when old = 0 *)
  c_regression : bool;
}

type report = {
  r_threshold : float;
  r_changes : change list;
  r_notes : string list;     (** structural mismatches; each one gates *)
}

val regressions : report -> int
(** Gating total: regression changes plus structural notes. *)

val diff :
  ?threshold:float -> ?volatile:string list ->
  Obs.Export.json -> Obs.Export.json -> report
(** [diff old new]: [threshold] is the relative change above which a
    numeric leaf is reported (default 0.10).  Object fields named in
    [volatile] are skipped entirely on both sides (in addition to the
    always-skipped "wallclock" block) — use it to exempt timing-dependent
    sections ("wall_s", "speedup", "prof", ...) when gating a fresh run
    against a committed baseline. *)

val diff_strings :
  ?threshold:float -> ?volatile:string list ->
  string -> string -> (report, string) result
(** Parse both texts and diff; [Error] on malformed JSON. *)

val schema_id : string
(** ["glassdb.benchdiff/v1"]. *)

val report_json : report -> Obs.Export.json
(** Canonical machine-readable report (the [--json] output): schema tag,
    threshold, changes (path/old/new/delta/regression), notes, and the
    gating [regressions] total. *)

val report_text : report -> string
(** Human-readable report, one line per change, summary line last. *)
