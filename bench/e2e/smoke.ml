(* Smoke test for the end-to-end benchmark (alias @bench-e2e-smoke, part
   of `dune runtest`).

   Runs all four workloads at tiny scale, untraced and traced, twice each
   with the same seed, and checks:
   - the same seed yields byte-identical op streams (and another seed a
     different one), and no inputs are generated inside a timed window;
   - every metric named in BENCHMARK.json is printed, and no other;
   - every exact metric repeats bit-for-bit across the two runs;
   - the result line has the contract's keys, and replay.coverage <= 1.

   Usage: smoke.exe BENCHMARK.json *)

module E = Glassdb_e2e
module W = E.Workload

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL: %s\n%!" msg
      end)
    fmt

(* Metric names of one BENCHMARK.json section: every "name" value between
   the section key and the next closing bracket. *)
let section_names json key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then None
      else if String.equal (String.sub json i n) sub then Some i
      else go (i + 1)
    in
    go i
  in
  match find_from 0 ("\"" ^ key ^ "\"") with
  | None -> []
  | Some start ->
    let stop = Option.value ~default:(String.length json) (find_from start "]") in
    let rec names i acc =
      match find_from i "\"name\"" with
      | Some j when j < stop ->
        let q1 = Option.get (find_from (j + 6) "\"") in
        let q2 = Option.get (find_from (q1 + 1) "\"") in
        names q2 (String.sub json (q1 + 1) (q2 - q1 - 1) :: acc)
      | _ -> List.rev acc
    in
    names start []

let exact_values (o : E.Bench.outcome) =
  List.filter_map
    (fun x -> if x.E.Bench.exact then Some (x.E.Bench.name, Printf.sprintf "%h" x.E.Bench.value) else None)
    o.E.Bench.metrics

let names (o : E.Bench.outcome) = List.map (fun x -> x.E.Bench.name) o.E.Bench.metrics

let () =
  let json = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  let e2e_names = section_names json "end_to_end" in
  let layer_names = section_names json "per_layer" in
  check (e2e_names <> [] && layer_names <> []) "BENCHMARK.json lists metrics";
  (* Traces land in the rule's build directory. *)
  let trace_dir = Filename.current_dir_name in
  List.iter
    (fun spec ->
      let spec = W.shrink spec in
      let name = spec.W.name in
      let a = W.make spec ~seed:7 and b = W.make spec ~seed:7 in
      check (String.equal (W.encode a) (W.encode b)) "%s: same seed, same op stream" name;
      check
        (not (String.equal (W.encode a) (W.encode (W.make spec ~seed:8))))
        "%s: another seed, another op stream" name;
      let made = !W.generations in
      let run f = match f () with o -> Some o | exception E.Round.Incorrect msg -> check false "%s: %s" name msg; None in
      let pair f =
        match (run f, run f) with
        | Some x, Some y ->
          check (x.E.Bench.failed = 0) "%s: no failed ops" name;
          check (exact_values x = exact_values y) "%s: exact metrics repeat" name;
          Some x
        | _ -> None
      in
      (match pair (fun () -> E.Bench.e2e a ~min_tail:0) with
       | Some o ->
         check (names o = e2e_names) "%s: end-to-end metrics match BENCHMARK.json" name;
         let line = E.Bench.json_line o in
         check
           (String.length line > 40
            && String.equal (String.sub line 0 20) "{\"correct\": true, \"a")
           "%s: result line shape" name
       | None -> ());
      (match pair (fun () -> E.Bench.traced a ~trace_dir) with
       | Some o ->
         check (names o = layer_names) "%s: per-layer metrics match BENCHMARK.json" name;
         let cov = List.find (fun x -> String.equal x.E.Bench.name "replay.coverage") o.E.Bench.metrics in
         check (cov.E.Bench.value <= 1.) "%s: replay.coverage <= 1" name
       | None -> ());
      check (!W.generations = made) "%s: no inputs generated while running" name)
    W.specs;
  if !failures > 0 then exit 1;
  print_endline "bench-e2e-smoke: 4 workloads OK"
