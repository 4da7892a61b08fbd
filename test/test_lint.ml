(* glassdb-lint test suite: every rule's positive / negative / suppressed
   fixture, JSON round-trip and run-to-run stability, and the allow.sexp
   grant machinery.  Fixtures live in test/lint_fixtures/ (copied next to
   the test binary via the dune source_tree dep). *)

let fixture_dir = "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

(* --- fixtures: each rule fires, stays quiet, and suppresses --- *)

let test_fixtures () =
  let results = Lint_engine.run_fixtures ~dir:fixture_dir in
  Alcotest.(check bool) "found fixtures" true (List.length results >= 22);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s)" r.Lint_engine.x_name r.Lint_engine.x_detail)
        true r.Lint_engine.x_ok)
    results

(* Every rule id in the catalogue has at least one pos fixture, so a rule
   can't silently rot out of the fixture suite. *)
let test_every_rule_fixtured () =
  List.iter
    (fun (id, _) ->
      let prefix = String.lowercase_ascii id ^ "_" in
      let present =
        Array.exists
          (fun f ->
            String.length f >= String.length prefix
            && String.equal (String.sub f 0 (String.length prefix)) prefix)
          (Sys.readdir fixture_dir)
      in
      Alcotest.(check bool) (id ^ " has fixtures") true present)
    Lint_engine.rules

(* --- rule precision --- *)

let findings path =
  (Lint_engine.lint_file ~scope:Lint_engine.Lib path).Lint_engine.r_findings

let rules_of path = List.map (fun f -> f.Lint_engine.f_rule) (findings path)

let test_rule_ids () =
  Alcotest.(check (list string)) "d001" [ "D001" ] (rules_of (fixture "d001_pos.ml"));
  Alcotest.(check (list string)) "d002" [ "D002" ] (rules_of (fixture "d002_pos.ml"));
  Alcotest.(check (list string)) "d003" [ "D003" ] (rules_of (fixture "d003_pos.ml"));
  Alcotest.(check (list string)) "d004"
    [ "D004"; "D004"; "D004"; "D004"; "D004" ]
    (rules_of (fixture "d004_pos.ml"));
  Alcotest.(check (list string)) "s001" [ "S001"; "S001" ]
    (rules_of (fixture "s001_pos.ml"));
  Alcotest.(check (list string)) "s002" [ "S002"; "S002" ]
    (rules_of (fixture "s002_pos.ml"))

let test_bench_scope () =
  (* S001/S002 are lib-only: the same source is clean under Bench scope,
     but determinism rules still apply there. *)
  let lint scope path = (Lint_engine.lint_file ~scope path).Lint_engine.r_findings in
  Alcotest.(check int) "s001 silent in bench" 0
    (List.length (lint Lint_engine.Bench (fixture "s001_pos.ml")));
  Alcotest.(check int) "s002 silent in bench" 0
    (List.length (lint Lint_engine.Bench (fixture "s002_pos.ml")));
  Alcotest.(check int) "d001 still fires in bench" 1
    (List.length (lint Lint_engine.Bench (fixture "d001_pos.ml")));
  (* No scope may spawn domains or take locks, and the message says why. *)
  let d004 = lint Lint_engine.Bench (fixture "d004_pos.ml") in
  Alcotest.(check int) "d004 fires in bench" 5 (List.length d004);
  List.iter
    (fun f ->
      let msg = f.Lint_engine.f_msg and needle = "single-domain by design" in
      let n = String.length needle in
      let rec has i =
        i + n <= String.length msg
        && (String.equal (String.sub msg i n) needle || has (i + 1))
      in
      Alcotest.(check bool) "d004 message names the design" true (has 0))
    d004

let test_safe_constants () =
  (* Comparisons against literals and nullary constructors are exempt
     from S001. *)
  let src =
    "let f x = x = 3\n\
     let g x = x = None\n\
     let h x = x <> []\n\
     let bad a b = a = b\n"
  in
  let r = Lint_engine.lint_source ~scope:Lint_engine.Lib ~file:"inline.ml" src in
  Alcotest.(check int) "only the non-constant compare fires" 1
    (List.length r.Lint_engine.r_findings);
  Alcotest.(check int) "it is on line 4" 4
    (List.hd r.Lint_engine.r_findings).Lint_engine.f_line

let test_parse_error () =
  let r =
    Lint_engine.lint_source ~scope:Lint_engine.Lib ~file:"broken.ml"
      "let x = ("
  in
  Alcotest.(check (list string)) "parse failure is a finding" [ "E000" ]
    (List.map (fun f -> f.Lint_engine.f_rule) r.Lint_engine.r_findings)

(* --- D004: no concurrency primitives anywhere --- *)

let d004_rules ~scope ~file src =
  List.map
    (fun f -> f.Lint_engine.f_rule)
    (Lint_engine.lint_source ~scope ~file src).Lint_engine.r_findings

let read_fixture name =
  In_channel.with_open_bin (fixture name) In_channel.input_all

(* The code lines of d004_pos.ml, one primitive each, with their line
   numbers. *)
let d004_lines () =
  List.filter
    (fun (_, l) -> String.length l > 4 && String.equal (String.sub l 0 4) "let ")
    (List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' (read_fixture "d004_pos.ml")))

(* Each primitive, linted on its own, fires exactly once in every scope:
   the library is single-domain by design, so neither lib/ nor
   bench/tools code may spawn or lock. *)
let test_d004_line src () =
  List.iter
    (fun (label, scope, file) ->
      Alcotest.(check (list string)) label [ "D004" ]
        (d004_rules ~scope ~file src))
    [ ("lib scope", Lint_engine.Lib, "lib/core/x.ml");
      ("bench scope", Lint_engine.Bench, "bench/x.ml");
      ("tools file", Lint_engine.Bench, "tools/x.ml") ]

let d004_line_cases =
  List.map
    (fun (n, src) ->
      Alcotest.test_case
        (Printf.sprintf "d004_pos.ml line %d alone" n)
        `Quick (test_d004_line src))
    (d004_lines ())

let test_d004_no_sanctioned_file () =
  (* The files that once hosted the domain pool, its per-domain scratch
     slots and counters get no exemption. *)
  let src = read_fixture "d004_pos.ml" in
  List.iter
    (fun file ->
      Alcotest.(check int) file 5
        (List.length (d004_rules ~scope:Lint_engine.Lib ~file src)))
    [ "lib/util/pool.ml"; "lib/util/work.ml"; "lib/util/scratch.ml" ]

let test_d004_reads_not_flagged () =
  (* Reading the core count or the current domain id, and atomics, spawn
     and lock nothing. *)
  Alcotest.(check (list string)) "no findings" []
    (d004_rules ~scope:Lint_engine.Lib ~file:"lib/core/x.ml"
       "let cores () = Domain.recommended_domain_count ()\n\
        let me () = Domain.self ()\n\
        let n = Atomic.make 0\n\
        let bump () = Atomic.incr n\n")

let test_d004_scan_covers_tools () =
  (* The whole-tree scan reaches tools/ as well as lib/ and bench/. *)
  let root = Filename.temp_dir "lint_scan" "" in
  let write rel src =
    let dir = Filename.concat root (Filename.dirname rel) in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Out_channel.with_open_bin (Filename.concat root rel) (fun oc ->
        output_string oc src)
  in
  let files = [ "lib/ok.ml"; "lib/ok.mli"; "bench/b.ml"; "tools/t.ml" ] in
  let bad = read_fixture "d004_pos.ml" in
  List.iter2 write files [ "let x = 1\n"; "val x : int\n"; bad; bad ];
  let r = Lint_engine.scan ~root ~grants:[] in
  List.iter (fun rel -> Sys.remove (Filename.concat root rel)) files;
  List.iter
    (fun d -> Sys.rmdir (Filename.concat root d))
    [ "lib"; "bench"; "tools"; "" ];
  let count file =
    List.length
      (List.filter
         (fun f ->
           String.equal f.Lint_engine.f_file file
           && String.equal f.Lint_engine.f_rule "D004")
         r.Lint_engine.r_findings)
  in
  Alcotest.(check int) "bench findings" 5 (count "bench/b.ml");
  Alcotest.(check int) "tools findings" 5 (count "tools/t.ml");
  Alcotest.(check int) "nothing else" 10 (List.length r.Lint_engine.r_findings)

(* --- JSON: round-trip and stability --- *)

let test_json_roundtrip () =
  let report = Lint_engine.lint_file ~scope:Lint_engine.Lib (fixture "s001_pos.ml") in
  let j1 = Lint_json.report_to_json report in
  let j2 = Lint_json.report_to_json (Lint_json.report_of_json j1) in
  Alcotest.(check string) "to_json . of_json . to_json = to_json" j1 j2;
  let report' = Lint_json.report_of_json j1 in
  Alcotest.(check int) "findings survive"
    (List.length report.Lint_engine.r_findings)
    (List.length report'.Lint_engine.r_findings)

let test_json_escapes_roundtrip () =
  let f =
    { Lint_engine.f_file = "weird \"name\"\\path.ml"; f_line = 7; f_col = 1;
      f_rule = "D001"; f_msg = "tab\there\nand — unicode dash" }
  in
  let r = { Lint_engine.r_findings = [ f ]; r_suppressed = [] } in
  let j = Lint_json.report_to_json r in
  let r' = Lint_json.report_of_json j in
  Alcotest.(check string) "escaped json round-trips" j
    (Lint_json.report_to_json r')

let test_json_stable () =
  (* Two independent runs over the same inputs produce byte-identical
     reports — the property BENCH consumers and CI diffing rely on. *)
  let run () =
    let reports =
      List.map
        (fun n -> Lint_engine.lint_file ~scope:Lint_engine.Lib (fixture n))
        [ "s001_pos.ml"; "d003_pos.ml"; "d001_sup.ml" ]
    in
    Lint_json.report_to_json
      { Lint_engine.r_findings =
          Lint_engine.sort_findings
            (List.concat_map (fun r -> r.Lint_engine.r_findings) reports);
        r_suppressed =
          Lint_engine.sort_findings
            (List.concat_map (fun r -> r.Lint_engine.r_suppressed) reports) }
  in
  Alcotest.(check string) "byte-identical across runs" (run ()) (run ())

(* --- allow.sexp grants --- *)

let test_grants () =
  let grants =
    Lint_engine.load_grants (Filename.concat fixture_dir "allow_fixture.sexp")
  in
  Alcotest.(check int) "two grants" 2 (List.length grants);
  List.iter
    (fun g ->
      Alcotest.(check bool) "grant has a reason" true
        (String.length g.Lint_engine.g_reason > 0))
    grants;
  (* A grant moves findings to suppressed without changing their text. *)
  let report = Lint_engine.lint_file ~scope:Lint_engine.Lib (fixture "d001_file_sup.ml") in
  Alcotest.(check int) "finding before grant" 1
    (List.length report.Lint_engine.r_findings);
  let granted = Lint_engine.apply_grants grants report in
  Alcotest.(check int) "no findings after grant" 0
    (List.length granted.Lint_engine.r_findings);
  Alcotest.(check int) "suppressed after grant" 1
    (List.length granted.Lint_engine.r_suppressed)

let test_repo_has_no_core_suppressions () =
  (* Acceptance: the repaired tree carries no suppressions in lib/core or
     lib/postree; the sanctioned annotations live in Det and Wallclock.
     The repo tree isn't visible from the test sandbox, so check the
     invariant structurally: suppressing requires the allow attribute,
     and the fixture-independent engine honors it only where written. *)
  let src = "let f h = Hashtbl.iter (fun _ _ -> ()) h\n" in
  let r = Lint_engine.lint_source ~scope:Lint_engine.Lib ~file:"core.ml" src in
  Alcotest.(check int) "unannotated iteration always fires" 1
    (List.length r.Lint_engine.r_findings)

let () =
  Alcotest.run "lint"
    [ ( "fixtures",
        [ Alcotest.test_case "all fixtures" `Quick test_fixtures;
          Alcotest.test_case "every rule fixtured" `Quick
            test_every_rule_fixtured;
          Alcotest.test_case "rule ids" `Quick test_rule_ids;
          Alcotest.test_case "bench scope" `Quick test_bench_scope;
          Alcotest.test_case "safe constants" `Quick test_safe_constants;
          Alcotest.test_case "parse error" `Quick test_parse_error ] );
      ( "d004",
        d004_line_cases
        @ [ Alcotest.test_case "no sanctioned file" `Quick
              test_d004_no_sanctioned_file;
            Alcotest.test_case "reads and atomics not flagged" `Quick
              test_d004_reads_not_flagged;
            Alcotest.test_case "scan covers tools" `Quick
              test_d004_scan_covers_tools ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes round-trip" `Quick
            test_json_escapes_roundtrip;
          Alcotest.test_case "stable across runs" `Quick test_json_stable ] );
      ( "grants",
        [ Alcotest.test_case "allow_fixture.sexp" `Quick test_grants;
          Alcotest.test_case "no blanket suppression" `Quick
            test_repo_has_no_core_suppressions ] ) ]
