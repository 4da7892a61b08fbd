(* Bench-regression comparator: structural diff of two BENCH_*.json
   documents with direction-aware thresholds.

   The walk pairs the two documents field by field.  Numeric leaves whose
   relative change exceeds the threshold become [change] rows; whether a
   change is a *regression* depends on the metric's direction, inferred
   from the leaf's key (throughput-like keys are higher-better, latency /
   byte / failure-like keys are lower-better, anything else is neutral
   and never gates).  Structural drift — a missing field, a type change,
   an array length mismatch, a [true] flag turning [false] — is always a
   regression: the gate should fail loudly on schema changes, not paper
   over them.

   The "wallclock" block is skipped (it is the one section the BENCH
   schemas allow to differ between identical runs).  Everything else
   participates.

   Arrays of objects are aligned by a key field when every element of
   both sides carries a unique "stage" or "name" string (the BENCH stage
   arrays), so reordering stages is not a spurious regression; otherwise
   elements pair by index. *)

open Bench1
open Obs.Export

type change = {
  c_path : string;
  c_old : float;
  c_new : float;
  c_delta : float option; (* relative; None when old = 0 *)
  c_regression : bool;
}

type report = {
  r_threshold : float;
  r_changes : change list;
  r_notes : string list; (* structural mismatches, each a regression *)
}

let regressions r =
  List.length r.r_notes
  + List.fold_left
      (fun acc c -> if c.c_regression then acc + 1 else acc)
      0 r.r_changes

(* --- metric direction, by leaf key --- *)

type direction = Higher_better | Lower_better | Neutral

let higher_better_keys =
  [ "speedup"; "ops_per_sec"; "throughput_tps"; "commits"; "cache_hits";
    "hit_ratio"; "commits_before_crash"; "commits_during_crash";
    "commits_after_restart" ]

let lower_better_keys =
  [ "aborts"; "failures"; "retries"; "rpc_retries"; "coordinator_aborts";
    "verification_failures"; "drops"; "delays"; "crashes"; "dropped_events";
    "page_reads"; "hashes" ]

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let direction_of key =
  if List.mem key higher_better_keys then Higher_better
  else if List.mem key lower_better_keys then Lower_better
  else if
    has_suffix key "_s" || has_suffix key "_seconds" || has_suffix key "_bytes"
    || has_suffix key "_batched" || has_suffix key "_independent"
  then Lower_better
  else Neutral

(* --- array alignment --- *)

let align_key = [ "stage"; "name"; "dist" ]

let label_of el =
  let rec first = function
    | [] -> None
    | k :: rest ->
      (match field k el with Some (Str s) -> Some s | _ -> first rest)
  in
  first align_key

let rec uniq = function
  | [] -> true
  | x :: rest -> (not (List.mem x rest)) && uniq rest

let labels_of l =
  let ls = List.map label_of l in
  if List.for_all Option.is_some ls then begin
    let ls = List.map Option.get ls in
    if uniq ls then Some ls else None
  end
  else None

(* --- the walk --- *)

let fmt_delta old new_ =
  if old = 0. then None else Some ((new_ -. old) /. Float.abs old)

let diff ?(threshold = 0.10) ?(volatile = []) old_j new_j =
  let skip k = String.equal k "wallclock" || List.mem k volatile in
  let changes = ref [] and notes = ref [] in
  let note path msg =
    notes := Printf.sprintf "%s: %s" path msg :: !notes
  in
  let leaf path key old new_ =
    if old <> new_ then begin
      let delta = fmt_delta old new_ in
      let exceeds =
        match delta with
        | Some d -> Float.abs d > threshold
        | None -> true (* appeared from zero: always report *)
      in
      if exceeds then begin
        let worse =
          match direction_of key with
          | Higher_better -> new_ < old
          | Lower_better -> new_ > old
          | Neutral -> false
        in
        changes :=
          { c_path = path; c_old = old; c_new = new_; c_delta = delta;
            c_regression = worse }
          :: !changes
      end
    end
  in
  let rec walk path key old new_ =
    match (old, new_) with
    | Num a, Num b -> leaf path key a b
    | Str a, Str b ->
      if a <> b then note path (Printf.sprintf "%S -> %S" a b)
    | Bool a, Bool b ->
      if a <> b then
        note path (Printf.sprintf "%b -> %b" a b)
    | Null, Null -> ()
    | Obj fa, Obj fb ->
      List.iter
        (fun (k, va) ->
          if not (skip k) then
            match List.assoc_opt k fb with
            | Some vb -> walk (path ^ "." ^ k) k va vb
            | None -> note (path ^ "." ^ k) "field removed")
        fa;
      List.iter
        (fun (k, _) ->
          if (not (skip k)) && List.assoc_opt k fa = None then
            note (path ^ "." ^ k) "field added")
        fb
    | Arr la, Arr lb ->
      (match (labels_of la, labels_of lb) with
       | Some ka, Some kb ->
         List.iter2
           (fun label el ->
             let p = Printf.sprintf "%s[%s]" path label in
             match List.assoc_opt label (List.combine kb lb) with
             | Some el' -> walk p key el el'
             | None -> note p "element removed")
           ka la;
         List.iter
           (fun label ->
             if not (List.mem label ka) then
               note (Printf.sprintf "%s[%s]" path label) "element added")
           kb
       | _ ->
         if List.length la <> List.length lb then
           note path
             (Printf.sprintf "array length %d -> %d" (List.length la)
                (List.length lb));
         List.iteri
           (fun i el ->
             match List.nth_opt lb i with
             | Some el' -> walk (Printf.sprintf "%s[%d]" path i) key el el'
             | None -> ())
           la)
    | _ -> note path "type changed"
  in
  walk "$" "" old_j new_j;
  { r_threshold = threshold;
    r_changes = List.rev !changes;
    r_notes = List.rev !notes }

let diff_strings ?threshold ?volatile old_text new_text =
  match (parse old_text, parse new_text) with
  | exception Bad m -> Error ("malformed JSON: " ^ m)
  | old_j, new_j -> Ok (diff ?threshold ?volatile old_j new_j)

(* --- canonical output --- *)

let schema_id = "glassdb.benchdiff/v1"

let report_json r =
  Obj
    [ ("schema", Str schema_id);
      ("threshold", Num r.r_threshold);
      ("changes",
       Arr
         (List.map
            (fun c ->
              Obj
                [ ("path", Str c.c_path);
                  ("old", Num c.c_old);
                  ("new", Num c.c_new);
                  ("delta",
                   match c.c_delta with Some d -> Num d | None -> Null);
                  ("regression", Bool c.c_regression) ])
            r.r_changes));
      ("notes", Arr (List.map (fun n -> Str n) r.r_notes));
      ("regressions", Num (float_of_int (regressions r))) ]

let report_text r =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s: %g -> %g%s\n"
           (if c.c_regression then "REGRESSION" else "change")
           c.c_path c.c_old c.c_new
           (match c.c_delta with
            | Some d -> Printf.sprintf " (%+.1f%%)" (100. *. d)
            | None -> " (from zero)")))
    r.r_changes;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "REGRESSION %s\n" n))
    r.r_notes;
  let n = regressions r in
  Buffer.add_string buf
    (if n = 0 then
       Printf.sprintf "benchdiff: no regressions (%d changes within policy)\n"
         (List.length r.r_changes)
     else Printf.sprintf "benchdiff: %d regression(s)\n" n);
  Buffer.contents buf
