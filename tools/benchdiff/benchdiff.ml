(* benchdiff: compare two BENCH_*.json files with regression thresholds.

     benchdiff [--threshold F] [--volatile k1,k2] [--json] OLD.json NEW.json

   Exit status: 0 = no regressions, 1 = regressions found, 2 = usage or
   parse error.  With [--json] the report is the canonical
   glassdb.benchdiff/v1 document (byte-stable for identical inputs), so
   CI can archive it next to the BENCH files it gates. *)

module Diff = Benchdiff_core.Diff

let usage () =
  prerr_endline
    "usage: benchdiff [--threshold F] [--volatile k1,k2] [--json] OLD.json \
     NEW.json";
  exit 2

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m ->
    prerr_endline ("benchdiff: " ^ m);
    exit 2

let () =
  let threshold = ref 0.10
  and volatile = ref []
  and json = ref false
  and files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse_args rest
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
       | Some f when f >= 0. -> threshold := f
       | _ ->
         prerr_endline ("benchdiff: bad threshold: " ^ v);
         exit 2);
      parse_args rest
    | "--volatile" :: v :: rest ->
      volatile := !volatile @ String.split_on_char ',' v;
      parse_args rest
    | ("--threshold" | "--volatile") :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | file :: rest ->
      files := file :: !files;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ old_path; new_path ] ->
    (match
       Diff.diff_strings ~threshold:!threshold ~volatile:!volatile
         (read_file old_path) (read_file new_path)
     with
     | Error m ->
       prerr_endline ("benchdiff: " ^ m);
       exit 2
     | Ok r ->
       if !json then print_endline (Obs.Export.to_string (Diff.report_json r))
       else print_string (Diff.report_text r);
       exit (if Diff.regressions r = 0 then 0 else 1))
  | _ -> usage ()
