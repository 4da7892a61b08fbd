(* GlassDB end-to-end benchmark.

     dune exec bench/e2e/glassdb_bench.exe -- --workload NAME --seed N
       [--seconds S] [--trace 0|1]

   Prints one line per metric (name, value, unit), then, as the last line,
   one JSON object {correct, attempted, failed, metrics}.  --trace 0 (the
   default) reports the end-to-end metrics; --trace 1 (or --traced)
   replays the same inputs with every layer call timed and reports the
   per-layer metrics, writing a Chrome trace under bench-out/.  Exits 1 if
   any output is wrong, 2 on bad arguments. *)

module E = Glassdb_e2e

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of: "
        ^ String.concat ", " (List.map (fun s -> s.E.Workload.name) E.Workload.specs));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds,
       "S run length the op arrays are sized for, in wall seconds on a 2-core host (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1") ]
  in
  let usage = "glassdb_bench --workload NAME --seed N [--seconds S] [--trace 0|1]" in
  let bad msg = prerr_endline ("glassdb_bench: " ^ msg); Arg.usage spec usage; exit 2 in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with
   | Arg.Bad msg -> prerr_string msg; exit 2
   | Arg.Help msg -> print_string msg; exit 0);
  let wl =
    match E.Workload.find !workload with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then bad "--seed must be a non-negative integer";
  if not (!seconds > 0.) then bad "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let pool_size = Glassdb_util.Pool.global_size () in
  let host_cores = Domain.recommended_domain_count () in
  if pool_size > host_cores then
    bad (Printf.sprintf "GLASSDB_DOMAINS=%d exceeds the host's %d cores" pool_size host_cores);
  Printf.printf "workload %s seed %d pool_size %d host_cores %d\n%!" wl.E.Workload.name !seed
    pool_size host_cores;
  let inputs = E.Workload.make wl ~seed:!seed ~seconds:!seconds in
  match if !trace = 1 then E.Bench.traced inputs else E.Bench.e2e inputs with
  | o ->
    List.iter print_endline o.E.Bench.notes;
    List.iter
      (fun x -> Printf.printf "%-40s %.6g %s\n" x.E.Bench.name x.E.Bench.value x.E.Bench.unit_)
      o.E.Bench.metrics;
    print_endline (E.Bench.json_line o)
  | exception E.Round.Incorrect msg ->
    prerr_endline ("glassdb_bench: INCORRECT: " ^ msg);
    exit 1
