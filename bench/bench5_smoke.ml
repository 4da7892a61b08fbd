(* bench5-smoke: one quick-profile run asserting the BENCH_5 schema
   (six stage rows with digests and wall time, plus the metrics section).

   Wired into `dune runtest` via the bench5-smoke alias. *)

let () =
  let text = Bench5.run ~quick:true () in
  match Bench5.validate text with
  | Ok () -> print_endline "bench5-smoke: BENCH_5.json schema OK"
  | Error m ->
    prerr_endline ("bench5-smoke: check FAILED: " ^ m);
    exit 1
