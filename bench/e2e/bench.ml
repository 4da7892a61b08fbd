(* Turning rounds and replays into the benchmark's named metrics.

   A metric is (name, value, unit, exact).  Exact metrics are pure
   functions of the workload and seed — virtual time, byte and work
   counts — and must repeat bit-for-bit; the rest are wall-clock or
   heap readings of this host. *)

open Glassdb_util
open Glassdb
module W = Workload

type metric = { name : string; value : float; unit_ : string; exact : bool }

let m ?(exact = false) name unit_ value = { name; value; unit_; exact }

(* A run that finds a wrong output raises [Round.Incorrect] instead, so
   an outcome is always a correct one. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fper a b = if b = 0 then 0. else a /. float_of_int b

(* Virtual latency of the round's ops, exact: the median and the mean
   are bounded metrics; the p99 is printed with the sample count it rests
   on but not bounded, because across seeds it moves with the few
   persist bursts that produce it. *)
let latency_metrics ~min_tail (r : Round.result) =
  let s = Stat.sorted r.Round.latencies in
  let n = Array.length s in
  let p50, _ = Stat.percentile_sorted s 0.50 in
  let p99, beyond = Stat.percentile_sorted s 0.99 in
  let mean = Array.fold_left ( +. ) 0. s /. float_of_int (max 1 n) in
  if beyond < min_tail then
    Round.incorrect "p99 rests on %d samples beyond it (need >= %d)" beyond
      min_tail;
  ( [ m ~exact:true "sim_p50_ms" "ms" (p50 *. 1e3);
      m ~exact:true "sim_mean_ms" "ms" (mean *. 1e3) ],
    [ Printf.sprintf "latency: %d samples; p50 %.4f ms, p99 %.4f ms (%d samples beyond)"
        n (p50 *. 1e3) (p99 *. 1e3) beyond ] )

(* Wall throughput as the median over the window's persist intervals of
   virtual time (each holds one persister wake-up): a burst of host noise
   shifts one interval, not the result, and the opening intervals, before
   the first deferred verifications fall due, do not dominate it. *)
let interval_rate (r : Round.result) =
  let marks = r.Round.marks in
  let rates =
    List.filter_map
      (fun i ->
        let w0, o0 = marks.(i) and w1, o1 = marks.(i + 1) in
        if w1 > w0 then Some (float_of_int (o1 - o0) /. (w1 -. w0)) else None)
      (List.init (max 0 (Array.length marks - 1)) Fun.id)
  in
  if rates = [] then float_of_int r.Round.ops /. r.Round.wall_s
  else Stat.median (Array.of_list rates)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let e2e ?(min_tail = 10) inputs =
  (* Three set-ups per run, reported as their median: two alone, then the
     one the timed window runs on. *)
  let setups =
    List.init 2 (fun _ ->
        let s = Round.setup_time inputs in
        Gc.compact ();
        s)
  in
  let first = Round.run inputs in
  let setup = Stat.median (Array.of_list (first.Round.setup_s :: setups)) in
  let ops_per_s = interval_rate first in
  let lat, lat_notes = latency_metrics ~min_tail first in
  let notes =
    Printf.sprintf "set-ups: %s s; timed window: %.3f s wall, %.4f s virtual"
      (String.concat " " (List.map (Printf.sprintf "%.3f") (first.Round.setup_s :: setups)))
      first.Round.wall_s first.Round.sim_s
    :: Printf.sprintf "ops: %d (attempted %d, failed %d, conflict retries %d of %d write attempts)"
         first.Round.ops first.Round.attempted first.Round.failed
         first.Round.txn_aborts first.Round.txn_attempts
    :: lat_notes
  in
  { attempted = first.Round.attempted;
    failed = first.Round.failed;
    metrics =
      [ m "setup_s" "s" setup;
        m "ops_per_s" "1/s" ops_per_s;
        m ~exact:true "sim_ops_per_s" "1/s" (float_of_int first.Round.ops /. first.Round.sim_s) ]
      @ lat
      @ [ m ~exact:true "storage_bytes_per_user_byte" "ratio"
            (per first.Round.storage_bytes first.Round.user_bytes);
          m "heap_mb" "MB" (heap_mb ()) ];
    notes }

(* Direct SHA-256 timing: single-block digests (55 bytes pad to one
   64-byte block). *)
let sha256_metrics () =
  let msg = String.make 55 'x' in
  let n = 20_000 in
  let m0 = Gc.minor_words () in
  let t0 = Benchkit.Wallclock.now_s () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Sha256.digest_string msg))
  done;
  let dt = Benchkit.Wallclock.now_s () -. t0 in
  let words = Gc.minor_words () -. m0 in
  [ m "sha256.ns_per_block" "ns" (dt /. float_of_int n *. 1e9);
    m ~exact:true "sha256.minor_words_per_block" "words" (words /. float_of_int n) ]

(* Cost of one empty timed call: what each span adds to the replay. *)
let span_overhead () =
  let r = Replay.recorder () in
  let n = 20_000 in
  let t0 = Benchkit.Wallclock.now_s () in
  for _ = 1 to n do
    Replay.timed r 0 ignore
  done;
  (Benchkit.Wallclock.now_s () -. t0) /. float_of_int n

let components = [ "audit"; "ledger"; "postree"; "proof"; "verify"; "wal" ]

let traced ?(trace_dir = "bench-out") inputs =
  let e = Round.run inputs in
  Gc.full_major ();
  let rp = Replay.run inputs e in
  let cost = Config.default.Config.cost in
  let ops = e.Round.ops in
  let aggs = rp.Replay.rec_.Replay.aggs in
  let waggs = rp.Replay.window_aggs in
  let window_wall = Array.fold_left (fun a g -> a +. g.Replay.wall) 0. waggs in
  (* Per-call costs come from every call, closing gate included (some
     layers run only there on some workloads); calls per op and shares
     come from the timed-window ops alone. *)
  let layer i name =
    let g = aggs.(i) and wg = waggs.(i) in
    let c = g.Replay.work in
    let model =
      if g.Replay.calls = 0 then 0.
      else
        Cost.time_of cost c
        +. (float_of_int (g.Replay.calls - 1) *. cost.Cost.per_op)
    in
    let pc v = fper (float_of_int v) g.Replay.calls in
    [ m (name ^ ".us_per_call") "us" (fper g.Replay.wall g.Replay.calls *. 1e6);
      m ~exact:true (name ^ ".calls_per_op") "count" (per wg.Replay.calls ops);
      m (name ^ ".share") "ratio" (if window_wall = 0. then 0. else wg.Replay.wall /. window_wall);
      m (name ^ ".minor_words_per_call") "words" (fper g.Replay.minor g.Replay.calls);
      m ~exact:true (name ^ ".hashes_per_call") "count" (pc c.Work.hashes);
      m (name ^ ".model_ratio") "ratio" (if g.Replay.wall = 0. then 0. else model /. g.Replay.wall) ]
    @
    if List.mem i Replay.store_layers then
      [ m ~exact:true (name ^ ".node_writes_per_call") "count" (pc c.Work.node_writes);
        m ~exact:true (name ^ ".page_reads_per_call") "count" (pc c.Work.page_reads);
        m ~exact:true (name ^ ".cache_hits_per_call") "count" (pc c.Work.cache_hits) ]
    else []
  in
  let layer_metrics = List.concat (List.mapi layer (Array.to_list Replay.layers)) in
  let attr =
    List.map
      (fun comp ->
        let h =
          match List.assoc_opt comp rp.Replay.attribution with
          | Some c -> c.Work.hashes
          | None -> 0
        in
        m ~exact:true ("attr." ^ comp ^ ".hashes_per_op") "count" (per h ops))
      components
  in
  let phase name =
    let v = Option.value ~default:0. (List.assoc_opt name e.Round.phases) in
    m ~exact:true ("node." ^ name ^ ".sim_mean_ms") "ms" (v *. 1e3)
  in
  let e2e_us = e.Round.wall_s /. float_of_int (max 1 ops) *. 1e6 in
  let replay_us = rp.Replay.window_wall /. float_of_int (max 1 ops) *. 1e6 in
  let overhead = span_overhead () in
  let metrics =
    layer_metrics @ sha256_metrics () @ attr
    @ [ m "rpc_sim.us_per_op" "us" (e2e_us -. replay_us);
        m "replay.coverage" "ratio"
          (if rp.Replay.window_wall = 0. then 0.
           else rp.Replay.window_span_wall /. rp.Replay.window_wall);
        m "trace.overhead_us_per_span" "us" (overhead *. 1e6) ]
    @ List.map phase [ "prepare"; "commit"; "persist"; "get-proof" ]
    @ [ m ~exact:true "store.cache_hit_ratio" "ratio"
          (per e.Round.cache_hits (e.Round.cache_hits + e.Round.cache_misses));
        m ~exact:true "ledger.writes_per_block" "count" (per e.Round.ledger_writes e.Round.blocks);
        m ~exact:true "ledger.node_writes_per_block" "count" (per e.Round.store_nodes e.Round.blocks);
        m ~exact:true "wal.bytes_per_commit" "B" (per e.Round.wal_bytes e.Round.commits);
        m ~exact:true "occ.abort_frac" "ratio" (per e.Round.txn_aborts e.Round.txn_attempts);
        m ~exact:true "client.keys_per_flush" "count" (per e.Round.flushed_keys e.Round.flushes);
        m ~exact:true "client.proof_bytes_per_key" "B/key" (per e.Round.proof_bytes e.Round.verified_keys);
        m "gc.minor_words_per_op" "words" (fper e.Round.minor_words ops);
        m "gc.major_collections_per_kop" "count" (per e.Round.major_collections ops *. 1e3) ]
  in
  let path =
    Filename.concat trace_dir (Printf.sprintf "trace-%s.json" inputs.W.spec.W.name)
  in
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  Replay.write_trace rp.Replay.rec_ ~path;
  { attempted = e.Round.attempted;
    failed = e.Round.failed;
    metrics;
    notes =
      [ Printf.sprintf "replayed %d ops (%d spans) into %s" ops
          (List.length rp.Replay.rec_.Replay.spans) path;
        Printf.sprintf "e2e %.1f us/op, replay %.1f us/op" e2e_us replay_us ] }

(* Final result line: exactly the keys the benchmark contract names, with
   every digit of each value. *)
let json_line o =
  let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v in
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))
