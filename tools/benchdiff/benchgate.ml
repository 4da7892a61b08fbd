(* benchgate: the bench-regression gate behind `dune build @benchgate`
   (chained into `dune runtest`).

     benchgate BENCH_5.json BENCH_5.gate.json
     benchgate --write-baseline BENCH_5.gate.json

   Three checks, any failure exits non-zero:

   1. Structural gate: the committed full-profile BENCH_5.json still
      parses and satisfies the bench5 schema.
   2. A fresh quick-profile run validates — the artifact pipeline itself
      works on this tree.
   3. Regression gate: the fresh run is diffed against the committed
      quick-profile baseline BENCH_5.gate.json with the 10% benchdiff
      threshold.  Timing-dependent leaves are exempt ([--volatile]):
      wall_s and host_cores vary run to run; everything else — stage
      digests, metrics, counters, schema shape — must hold within
      policy.

   A legitimate behavior change (e.g. a new ledger digest) fails check 3
   by design; regenerate the baseline with --write-baseline and commit
   it alongside the change. *)

module Diff = Benchdiff_core.Diff

let volatile = Bench5.volatile

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m ->
    prerr_endline ("benchgate: " ^ m);
    exit 2

let fresh_run () =
  let text = Bench5.run ~quick:true () in
  (match Bench5.validate text with
   | Ok () -> ()
   | Error m ->
     prerr_endline ("benchgate: fresh run failed validation: " ^ m);
     exit 1);
  text

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write-baseline"; path ] ->
    Bench1.write_file path (fresh_run ());
    Printf.printf "benchgate: wrote baseline %s\n%!" path
  | [ _; bench5_path; gate_path ] ->
    (match Bench5.validate (read_file bench5_path) with
     | Ok () ->
       Printf.printf "benchgate: %s schema OK\n%!" bench5_path
     | Error m ->
       prerr_endline
         (Printf.sprintf "benchgate: committed %s invalid: %s" bench5_path m);
       exit 1);
    let fresh = fresh_run () in
    print_endline "benchgate: fresh quick run OK";
    (match
       Diff.diff_strings ~threshold:0.10 ~volatile (read_file gate_path) fresh
     with
     | Error m ->
       prerr_endline ("benchgate: " ^ m);
       exit 2
     | Ok r ->
       print_string (Diff.report_text r);
       if Diff.regressions r > 0 then begin
         prerr_endline
           "benchgate: fresh run regressed against the committed baseline \
            (regenerate with `benchgate --write-baseline BENCH_5.gate.json` \
            if the change is intended)";
         exit 1
       end)
  | _ ->
    prerr_endline
      "usage: benchgate BENCH_5.json BENCH_5.gate.json | benchgate \
       --write-baseline PATH";
    exit 2
