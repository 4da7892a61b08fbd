(* PR-1 measurement: batched multiproofs + caching vs independent proofs.

   Micro: for batch sizes 1..512 under uniform and Zipfian key popularity,
   compare one {!Ledger.prove_inclusion_batch}/{!verify_inclusion_batch}
   round against N independent prove/verify rounds — page reads, hashes,
   proof bytes, and the cost model's simulated service time.

   Macro: a deferred-verification workload (Workload-X style) over the
   simulated GlassDB cluster; throughput, per-batch proof bytes and the
   p50/p99 simulated verification latency.

   Results land in BENCH_1.json.  The schema is checked by the bench-smoke
   alias (see {!validate}), so the file's shape is pinned by `dune runtest`. *)

open Glassdb_util
open Benchkit
open Obs.Export
module Ledger = Glassdb.Ledger

(* --- tiny JSON parser (for the smoke-test schema check) --- *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
  let next () = let c = peek () in incr pos; c in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then (incr pos; skip_ws ())
  in
  let expect c =
    if next () <> c then raise (Bad (Printf.sprintf "expected %c" c))
  in
  let literal word v =
    String.iter (fun c -> if next () <> c then raise (Bad word)) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match next () with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           let hex = String.init 4 (fun _ -> next ()) in
           let code = int_of_string ("0x" ^ hex) in
           if code < 128 then Buffer.add_char buf (Char.chr code)
           else Buffer.add_char buf '?'
         | c -> raise (Bad (Printf.sprintf "escape \\%c" c)));
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      expect '{';
      skip_ws ();
      if peek () = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> fields ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | c -> raise (Bad (Printf.sprintf "in object: %c" c))
        in
        fields []
      end
    | '[' ->
      expect '[';
      skip_ws ();
      if peek () = ']' then (incr pos; Arr [])
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elems (v :: acc)
          | ']' -> Arr (List.rev (v :: acc))
          | c -> raise (Bad (Printf.sprintf "in array: %c" c))
        in
        elems []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do incr pos done;
      if !pos = start then raise (Bad "value");
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f -> Num f
       | None -> raise (Bad "number"))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing bytes");
  v

(* --- the measurements --- *)

(* v2: adds the "metrics" section (Obs registry snapshot of the macro run). *)
let schema_id = "glassdb.bench1/v2"

let key_of i = Printf.sprintf "key-%06d" i

type micro_row = {
  m_dist : string;
  m_batch : int;
  m_bytes_batched : int;
  m_bytes_independent : int;
  m_hashes_batched : int;
  m_hashes_independent : int;
  m_page_reads_batched : int;
  m_page_reads_independent : int;
  m_sim_s_batched : float;
  m_sim_s_independent : float;
  m_ok : bool;
}

let micro_row ledger digest rng ~records ~dist ~zipf ~batch =
  let draw () =
    match dist with
    | "zipf" -> Zipf.scrambled rng zipf
    | _ -> Rng.int_below rng records
  in
  let keys =
    List.init batch (fun _ -> key_of (draw ())) |> List.sort_uniq compare
  in
  (* Batched: one proof for the whole key set. *)
  let bp, cb =
    Work.measure (fun () -> Ledger.prove_inclusion_batch ledger keys ~block:0)
  in
  let okb, vb =
    Work.measure (fun () -> Ledger.verify_inclusion_batch ~digest bp)
  in
  (* Independent: one proof per key. *)
  let proofs, ci =
    Work.measure (fun () ->
        List.map (fun k -> Ledger.prove_inclusion ledger k ~block:0) keys)
  in
  let oki, vi =
    Work.measure (fun () ->
        List.for_all2
          (fun k p ->
            let value = Option.map (fun (v, _, _) -> v) (Ledger.get ledger k) in
            Ledger.verify_inclusion ~digest ~key:k ~value p)
          keys proofs)
  in
  let cost = Cost.default in
  { m_dist = dist;
    m_batch = batch;
    m_bytes_batched = Ledger.batch_proof_codec.Codec.size_bytes bp;
    m_bytes_independent =
      List.fold_left
        (fun a p -> a + Ledger.proof_codec.Codec.size_bytes p)
        0 proofs;
    m_hashes_batched = cb.Work.hashes + vb.Work.hashes;
    m_hashes_independent = ci.Work.hashes + vi.Work.hashes;
    m_page_reads_batched = cb.Work.page_reads + vb.Work.page_reads;
    m_page_reads_independent = ci.Work.page_reads + vi.Work.page_reads;
    m_sim_s_batched = Cost.time_of cost (Work.add cb vb);
    m_sim_s_independent = Cost.time_of cost (Work.add ci vi);
    m_ok = okb && oki }

let micro_sweep ~quick =
  let records = if quick then 2_000 else 50_000 in
  let batches =
    if quick then [ 1; 4; 16 ]
    else [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ]
  in
  let store = Storage.Node_store.create () in
  let ledger =
    Ledger.append_block
      (Ledger.create (Ledger.config store))
      ~time:0.
      ~writes:
        (List.init records (fun i ->
             { Ledger.wkey = key_of i;
               wvalue = Printf.sprintf "value-%06d" i;
               wtid = "t0" }))
      ~txns:[]
  in
  let digest = Ledger.digest ledger in
  let zipf = Zipf.create ~n:records ~theta:0.9 in
  List.concat_map
    (fun dist ->
      let rng = Rng.create 1234 in
      List.map
        (fun batch ->
          micro_row ledger digest rng ~records ~dist ~zipf ~batch)
        batches)
    [ "uniform"; "zipf" ]

let json_of_micro r =
  let per_key bytes = float_of_int bytes /. float_of_int r.m_batch in
  Obj
    [ ("dist", Str r.m_dist);
      ("batch_size", Num (float_of_int r.m_batch));
      ("verified", Bool r.m_ok);
      ("proof_bytes_batched", Num (float_of_int r.m_bytes_batched));
      ("proof_bytes_independent", Num (float_of_int r.m_bytes_independent));
      ("proof_bytes_per_key_batched", Num (per_key r.m_bytes_batched));
      ("proof_bytes_per_key_independent", Num (per_key r.m_bytes_independent));
      ("hashes_batched", Num (float_of_int r.m_hashes_batched));
      ("hashes_independent", Num (float_of_int r.m_hashes_independent));
      ("page_reads_batched", Num (float_of_int r.m_page_reads_batched));
      ("page_reads_independent", Num (float_of_int r.m_page_reads_independent));
      ("sim_seconds_batched", Num r.m_sim_s_batched);
      ("sim_seconds_independent", Num r.m_sim_s_independent) ]

let macro_run ~quick =
  let params =
    { System.default_params with
      System.shards = (if quick then 2 else 8);
      persist_interval = 0.05;
      verify_delay = 0.1 }
  in
  let cfg =
    { Ycsb.default_config with
      Ycsb.record_count = (if quick then 500 else 6000);
      theta = 0.5 }
  in
  let setup =
    { Driver.sys = Adapters.glassdb;
      params;
      clients = (if quick then 4 else 32);
      duration = (if quick then 0.35 else 1.2);
      warmup = (if quick then 0.1 else 0.3);
      seed = 42 }
  in
  let r = Driver.run_verified setup cfg ~pick:Ycsb.workload_x in
  let keys_per_batch =
    if r.Driver.r_verifications = 0 then 0.
    else float_of_int r.Driver.r_verified_keys
         /. float_of_int r.Driver.r_verifications
  in
  let bytes_per_key =
    if r.Driver.r_verified_keys = 0 then 0.
    else
      Stats.mean r.Driver.r_proof_bytes
      *. float_of_int (Stats.count r.Driver.r_proof_bytes)
      /. float_of_int r.Driver.r_verified_keys
  in
  Obj
    [ ("workload", Str "workload-x/zipf-0.5");
      ("ops_per_sec", Num r.Driver.r_throughput);
      ("verifications", Num (float_of_int r.Driver.r_verifications));
      ("verified_keys", Num (float_of_int r.Driver.r_verified_keys));
      ("keys_per_batch", Num keys_per_batch);
      ("proof_bytes_per_batch_mean", Num (Stats.mean r.Driver.r_proof_bytes));
      ("proof_bytes_per_key", Num bytes_per_key);
      ("verify_latency_p50_s", Num (Stats.percentile r.Driver.r_verify_latency 0.5));
      ("verify_latency_p99_s", Num (Stats.percentile r.Driver.r_verify_latency 0.99));
      ("failures", Num (float_of_int r.Driver.r_failures)) ]

let run ~quick () =
  let micro = micro_sweep ~quick in
  let macro = macro_run ~quick in
  (* The driver resets the Obs registry at run start, so this snapshot
     covers exactly the macro run above. *)
  let metrics = Obs.Export.metrics_fields () in
  to_string
    (Obj
       [ ("schema", Str schema_id);
         ("profile", Str (if quick then "smoke" else "full"));
         ("micro", Arr (List.map json_of_micro micro));
         ("macro", macro);
         ("metrics", Obj metrics) ])

(* --- schema validation (used by the bench-smoke alias) --- *)

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let require_num obj name =
  match field name obj with
  | Some (Num _) -> ()
  | _ -> raise (Bad (Printf.sprintf "missing numeric field %S" name))

(* Shape check for an Obs metrics snapshot (the bench "metrics" section and
   the standalone file --metrics emits).  Raises {!Bad}.  Also used by the
   trace-smoke alias. *)
let validate_metrics metrics =
  (match field "schema" metrics with
   | Some (Str "glassdb.metrics/v1") -> ()
   | _ -> raise (Bad "metrics.schema"));
  let section name =
    match field name metrics with
    | Some (Obj fields) -> fields
    | _ -> raise (Bad (Printf.sprintf "metrics.%s must be an object" name))
  in
  let counters = section "counters" in
  if
    not
      (List.exists
         (fun (_, v) -> match v with Num x -> x > 0. | _ -> false)
         counters)
  then raise (Bad "metrics.counters: no nonzero counter");
  let gauges = section "gauges" in
  if
    not
      (List.exists
         (fun (_, g) ->
           match field "samples" g with Some (Arr (_ :: _)) -> true | _ -> false)
         gauges)
  then raise (Bad "metrics.gauges: no gauge was ever sampled");
  let histograms = section "histograms" in
  if
    not
      (List.exists
         (fun (_, h) ->
           match field "count" h with Some (Num c) -> c > 0. | _ -> false)
         histograms)
  then raise (Bad "metrics.histograms: no histogram observations");
  ignore (section "attribution")

let validate text =
  match parse text with
  | exception Bad m -> Error ("malformed JSON: " ^ m)
  | j ->
    (try
       (match field "schema" j with
        | Some (Str s) when s = schema_id -> ()
        | _ -> raise (Bad "schema tag"));
       (match field "profile" j with
        | Some (Str _) -> ()
        | _ -> raise (Bad "profile"));
       let micro =
         match field "micro" j with
         | Some (Arr (_ :: _ as rows)) -> rows
         | _ -> raise (Bad "micro must be a non-empty array")
       in
       List.iter
         (fun row ->
           (match field "dist" row with
            | Some (Str ("uniform" | "zipf")) -> ()
            | _ -> raise (Bad "micro.dist"));
           (match field "verified" row with
            | Some (Bool true) -> ()
            | _ -> raise (Bad "micro row failed verification"));
           List.iter (require_num row)
             [ "batch_size"; "proof_bytes_batched"; "proof_bytes_independent";
               "proof_bytes_per_key_batched"; "proof_bytes_per_key_independent";
               "hashes_batched"; "hashes_independent"; "page_reads_batched";
               "page_reads_independent"; "sim_seconds_batched";
               "sim_seconds_independent" ])
         micro;
       let macro =
         match field "macro" j with
         | Some (Obj _ as m) -> m
         | _ -> raise (Bad "macro must be an object")
       in
       List.iter (require_num macro)
         [ "ops_per_sec"; "verifications"; "verified_keys";
           "proof_bytes_per_batch_mean"; "proof_bytes_per_key";
           "verify_latency_p50_s"; "verify_latency_p99_s"; "failures" ];
       (match field "failures" macro with
        | Some (Num 0.) -> ()
        | _ -> raise (Bad "macro.failures must be 0"));
       (match field "metrics" j with
        | Some (Obj _ as m) -> validate_metrics m
        | _ -> raise (Bad "metrics must be an object"));
       (* The tentpole claim, asserted on the data itself: from batch 2 up,
          the deduplicated proof is strictly smaller than N independent
          ones.  A singleton batch pays a few bytes of item framing over a
          plain proof, never more than a quarter. *)
       List.iter
         (fun row ->
           match (field "batch_size" row, field "proof_bytes_batched" row,
                  field "proof_bytes_independent" row) with
           | Some (Num b), Some (Num bb), Some (Num bi) ->
             if b >= 2. && bb >= bi then
               raise (Bad "batched proof not smaller than independent");
             if b < 2. && bb > bi *. 1.25 then
               raise (Bad "singleton batch overhead too large")
           | _ -> raise (Bad "micro row fields"))
         micro;
       Ok ()
     with Bad m -> Error m)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  output_string oc "\n";
  close_out oc

let run_and_write ~quick ~path () =
  let text = run ~quick () in
  (match validate text with
   | Ok () -> ()
   | Error m -> failwith ("bench1: generated JSON failed validation: " ^ m));
  write_file path text;
  Printf.printf "bench1: wrote %s (%d bytes)\n%!" path (String.length text)
