(* benchdiff-smoke: the regression gate gating itself.

   Checks, on a miniature BENCH-shaped document: (1) a diff of identical
   documents is empty with zero regressions; (2) a slower wall_s (a
   lower-better key) past the threshold is flagged as a regression while
   the same change inside the threshold is not; (3) a higher-better key
   falling is flagged; (4) a neutral-key change is reported but never
   gates; (5) structural drift (a removed field) gates; (6) the --json
   report round-trips through the bench JSON parser with the advertised
   schema tag.  Wired into `dune runtest` via the benchdiff-smoke
   alias. *)

open Bench1
open Obs.Export
module Diff = Benchdiff_core.Diff

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("benchdiff-smoke: FAILED: " ^ m); exit 1) fmt

let doc ~wall ~speedup ~cores ~extra_field =
  Obj
    ([ ("schema", Str "glassdb.bench5/v4");
       ("host_cores", Num cores);
       ("stages",
        Arr
          [ Obj
              [ ("stage", Str "persist");
                ("digest", Str "abc");
                ("runs",
                 Arr
                   [ Obj
                       [ ("pool_size", Num 1.);
                         ("wall_s", Num wall);
                         ("speedup", Num speedup) ] ]) ] ]);
       ("wallclock", Obj [ ("finished_unix_s", Num 123.) ]) ]
    @ if extra_field then [ ("notes", Str "x") ] else [])

let base = doc ~wall:1.0 ~speedup:2.0 ~cores:4. ~extra_field:false

let () =
  (* 1. identical documents: empty diff, exit-0 condition. *)
  let r = Diff.diff base base in
  if r.Diff.r_changes <> [] || r.Diff.r_notes <> [] then
    fail "diff of identical documents is not empty";
  if Diff.regressions r <> 0 then fail "identical documents regressed";

  (* 2. lower-better leaf: +50% wall_s gates, +5% does not. *)
  let slow = doc ~wall:1.5 ~speedup:2.0 ~cores:4. ~extra_field:false in
  let r = Diff.diff base slow in
  (match r.Diff.r_changes with
   | [ c ] ->
     if not c.Diff.c_regression then fail "slower wall_s not flagged";
     if Diff.regressions r <> 1 then fail "regression count";
     (match c.Diff.c_delta with
      | Some d when Float.abs (d -. 0.5) < 1e-9 -> ()
      | _ -> fail "wall_s delta")
   | l -> fail "expected exactly one change, got %d" (List.length l));
  let barely = doc ~wall:1.05 ~speedup:2.0 ~cores:4. ~extra_field:false in
  if Diff.regressions (Diff.diff base barely) <> 0 then
    fail "+5%% wall_s gated at the default 10%% threshold";
  if Diff.regressions (Diff.diff ~threshold:0.01 base barely) <> 1 then
    fail "+5%% wall_s not gated at a 1%% threshold";

  (* 3. higher-better leaf falling gates; rising does not. *)
  let slower = doc ~wall:1.0 ~speedup:1.0 ~cores:4. ~extra_field:false in
  if Diff.regressions (Diff.diff base slower) <> 1 then
    fail "halved speedup not flagged";
  if Diff.regressions (Diff.diff slower base) <> 0 then
    fail "doubled speedup flagged as a regression";

  (* 4. neutral key: reported, never gates. *)
  let other_host = doc ~wall:1.0 ~speedup:2.0 ~cores:8. ~extra_field:false in
  let r = Diff.diff base other_host in
  if List.length r.Diff.r_changes <> 1 then fail "host_cores change not reported";
  if Diff.regressions r <> 0 then fail "neutral host_cores change gated";

  (* 5. structural drift gates, both directions. *)
  let extra = doc ~wall:1.0 ~speedup:2.0 ~cores:4. ~extra_field:true in
  if Diff.regressions (Diff.diff base extra) <> 1 then fail "added field not gated";
  if Diff.regressions (Diff.diff extra base) <> 1 then fail "removed field not gated";

  (* 6. canonical report round-trips through the bench JSON parser. *)
  let text = to_string (Diff.report_json (Diff.diff base slow)) in
  (match parse text with
   | exception Bad m -> fail "report_json does not parse: %s" m
   | j ->
     (match field "schema" j with
      | Some (Str s) when s = Diff.schema_id -> ()
      | _ -> fail "report schema tag");
     (match field "regressions" j with
      | Some (Num 1.) -> ()
      | _ -> fail "report regressions count"));
  (* And the empty report is byte-stable. *)
  let empty1 = to_string (Diff.report_json (Diff.diff base base)) in
  let empty2 = to_string (Diff.report_json (Diff.diff base base)) in
  if empty1 <> empty2 then fail "empty report not byte-stable";
  print_endline
    "benchdiff-smoke: gate OK (empty on identical, thresholded regressions \
     flagged, canonical --json)"
