(* glassdb-racecheck test suite: every rule's positive / negative /
   suppressed fixture (including multi-module directory fixtures), the
   lockorder.sexp parser, the R002 nesting hazards (inverted, same-name,
   unranked, and a cycle closed through a call), and JSON round-trip and
   byte stability of the canonical report. *)

let fixture_dir = Filename.concat "lint_fixtures" "racecheck"

(* --- fixtures --- *)

let test_fixtures () =
  let results = Racecheck_engine.run_fixtures ~dir:fixture_dir in
  Alcotest.(check bool) "found fixtures" true (List.length results >= 15);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s)" r.Lint_engine.x_name r.Lint_engine.x_detail)
        true r.Lint_engine.x_ok)
    results

let test_every_rule_fixtured () =
  let entries = Sys.readdir fixture_dir in
  List.iter
    (fun rule ->
      let prefix = String.lowercase_ascii rule ^ "_" in
      List.iter
        (fun case ->
          let present =
            Array.exists
              (fun f ->
                String.length f >= String.length prefix
                && String.equal (String.sub f 0 (String.length prefix)) prefix
                && (let stem = Filename.remove_extension f in
                    String.length stem > String.length case
                    && String.equal
                         (String.sub stem
                            (String.length stem - String.length case)
                            (String.length case))
                         case))
              entries
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s has a %s fixture" rule case)
            true present)
        [ "pos"; "neg"; "sup" ])
    Racecheck_engine.rule_ids

let analyze_fixture names =
  let lockorder =
    Racecheck_engine.load_lockorder (Filename.concat fixture_dir "lockorder.sexp")
  in
  Racecheck_engine.analyze ~lockorder
    (List.map
       (fun n ->
         Racecheck_engine.source_of_disk
           ~disk:(Filename.concat fixture_dir n)
           ~shown:n)
       names)

let rules_of names =
  List.map
    (fun f -> f.Lint_engine.f_rule)
    (analyze_fixture names).Racecheck_engine.a_report.Lint_engine.r_findings

let test_rule_ids () =
  Alcotest.(check (list string)) "r001" [ "R001" ] (rules_of [ "r001_pos.ml" ]);
  Alcotest.(check (list string)) "r002" [ "R002" ] (rules_of [ "r002_pos.ml" ]);
  Alcotest.(check (list string)) "r003" [ "R003"; "R003" ]
    (rules_of [ "r003_pos.ml" ]);
  Alcotest.(check (list string)) "r004" [ "R004"; "R004" ]
    (rules_of [ "r004_pos.ml" ])

(* The Scratch pattern from this PR: slots created through
   Glassdb_util.Scratch are per-domain by construction (classified into
   the R001 task-local tier), while hand-rolled ambient DLS scratch
   buffers stay R004 violations. *)
let test_scratch_tier () =
  Alcotest.(check (list string))
    "Scratch-held buffer mutated from a pooled task is clean" []
    (rules_of [ "r001_scratch_neg.ml" ]);
  Alcotest.(check (list string))
    "ambient DLS scratch buffer flagged at mint and at use"
    [ "R004"; "R004" ]
    (rules_of [ "r004_scratch_pos.ml" ])

let test_parse_error () =
  let a =
    Racecheck_engine.analyze ~lockorder:Racecheck_engine.empty_lockorder
      [ { Racecheck_engine.s_shown = "broken.ml"; s_src = "let x = (";
          s_mli = None } ]
  in
  Alcotest.(check (list string)) "parse failure is a finding" [ "E000" ]
    (List.map
       (fun f -> f.Lint_engine.f_rule)
       a.Racecheck_engine.a_report.Lint_engine.r_findings)

(* --- lockorder.sexp --- *)

let test_lockorder_closure () =
  let lo =
    Racecheck_engine.lockorder_of_source "(order (a b c))\n(order (c d))\n"
  in
  let allows held acquired =
    Racecheck_engine.order_allows lo ~held ~acquired
  in
  Alcotest.(check bool) "adjacent pair" true (allows "a" "b");
  Alcotest.(check bool) "transitive in one chain" true (allows "a" "c");
  Alcotest.(check bool) "transitive across chains" true (allows "a" "d");
  Alcotest.(check bool) "reverse rejected" false (allows "b" "a");
  Alcotest.(check bool) "self rejected" false (allows "a" "a")

let test_lockorder_cycle () =
  Alcotest.check_raises "declared cycle is a configuration error"
    (Failure "lockorder.sexp: declared order has a cycle through \"a\"")
    (fun () ->
      ignore (Racecheck_engine.lockorder_of_source "(order (a b))\n(order (b a))\n"))

(* --- R002 nesting: each lock-order hazard the analyzer must catch,
   analysed from inline sources against the fixture order
   (fixture.a before fixture.b) --- *)

let lock_prelude =
  "module Lock = Glassdb_util.Pool.Lock\n\
   let la = Lock.create ~name:\"fixture.a\" ()\n\
   let lb = Lock.create ~name:\"fixture.b\" ()\n"

let r002_findings body =
  let lockorder =
    Racecheck_engine.load_lockorder (Filename.concat fixture_dir "lockorder.sexp")
  in
  let a =
    Racecheck_engine.analyze ~lockorder
      [ { Racecheck_engine.s_shown = "nesting.ml"; s_src = lock_prelude ^ body;
          s_mli = None } ]
  in
  List.filter_map
    (fun f ->
      if String.equal f.Lint_engine.f_rule "R002" then
        Some f.Lint_engine.f_msg
      else None)
    a.Racecheck_engine.a_report.Lint_engine.r_findings

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let check_one_finding label ~mentions msgs =
  match msgs with
  | [ m ] ->
    List.iter
      (fun sub ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S mentions %S" label m sub)
          true (contains m sub))
      mentions
  | _ ->
    Alcotest.failf "%s: expected one R002 finding, got %d" label
      (List.length msgs)

let test_nesting_sanctioned () =
  Alcotest.(check (list string)) "declared order is silent" []
    (r002_findings
       "let f () = Lock.with_lock la (fun () -> Lock.with_lock lb (fun () -> ()))\n")

let test_nesting_inverted () =
  check_one_finding "inverted pair"
    ~mentions:[ "fixture.a"; "fixture.b"; "not sanctioned" ]
    (r002_findings
       "let f () = Lock.with_lock lb (fun () -> Lock.with_lock la (fun () -> ()))\n")

let test_nesting_same_name () =
  (* Two distinct locks sharing a name (e.g. per-shard locks): equal ranks
     deadlock pairwise, so same-name nesting is never sanctioned. *)
  check_one_finding "same-name pair" ~mentions:[ "fixture.a"; "self-deadlock" ]
    (r002_findings
       "let la2 = Lock.create ~name:\"fixture.a\" ()\n\
        let f () = Lock.with_lock la (fun () -> Lock.with_lock la2 (fun () -> ()))\n")

let test_nesting_unranked () =
  (* A lock absent from the declared order is never sanctioned under
     another. *)
  check_one_finding "unranked lock"
    ~mentions:[ "fixture.unranked"; "fixture.a" ]
    (r002_findings
       "let lx = Lock.create ~name:\"fixture.unranked\" ()\n\
        let f () = Lock.with_lock la (fun () -> Lock.with_lock lx (fun () -> ()))\n")

let test_nesting_cycle_through_call () =
  (* The inverted acquisition sits in a helper reached while fixture.b is
     held, and another path takes the pair in declared order: the
     may-hold fixpoint carries the held lock across the call and the
     report names the resulting acquisition cycle. *)
  check_one_finding "cycle through a call"
    ~mentions:[ "fixture.a"; "fixture.b"; "acquisition cycle" ]
    (r002_findings
       "let take_a () = Lock.with_lock la (fun () -> ())\n\
        let right () = Lock.with_lock la (fun () -> Lock.with_lock lb (fun () -> ()))\n\
        let wrong () = Lock.with_lock lb (fun () -> take_a ())\n")

(* --- JSON: canonical report round-trip and byte stability --- *)

let test_json_roundtrip () =
  let report =
    (analyze_fixture [ "r001_pos.ml"; "r003_pos.ml" ])
      .Racecheck_engine.a_report
  in
  Alcotest.(check bool) "report is non-empty" true
    (report.Lint_engine.r_findings <> []);
  let j1 = Lint_json.report_to_json report in
  let j2 = Lint_json.report_to_json (Lint_json.report_of_json j1) in
  Alcotest.(check string) "to_json . of_json . to_json = to_json" j1 j2

let test_json_stable () =
  let run () =
    Lint_json.report_to_json
      (analyze_fixture [ "r001_pos.ml"; "r002_pos.ml"; "r004_pos.ml" ])
        .Racecheck_engine.a_report
  in
  Alcotest.(check string) "byte-identical across runs" (run ()) (run ())

let () =
  Alcotest.run "racecheck"
    [ ( "fixtures",
        [ Alcotest.test_case "all fixtures" `Quick test_fixtures;
          Alcotest.test_case "every rule fixtured" `Quick
            test_every_rule_fixtured;
          Alcotest.test_case "rule ids" `Quick test_rule_ids;
          Alcotest.test_case "scratch tier" `Quick test_scratch_tier;
          Alcotest.test_case "parse error" `Quick test_parse_error ] );
      ( "lockorder",
        [ Alcotest.test_case "transitive closure" `Quick test_lockorder_closure;
          Alcotest.test_case "declared cycle rejected" `Quick
            test_lockorder_cycle ] );
      ( "nesting",
        [ Alcotest.test_case "sanctioned nesting silent" `Quick
            test_nesting_sanctioned;
          Alcotest.test_case "inverted nesting flagged" `Quick
            test_nesting_inverted;
          Alcotest.test_case "same-name nesting flagged" `Quick
            test_nesting_same_name;
          Alcotest.test_case "unranked lock flagged" `Quick
            test_nesting_unranked;
          Alcotest.test_case "cycle through a call flagged" `Quick
            test_nesting_cycle_through_call ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "stable across runs" `Quick test_json_stable ] ) ]
