(* The domain-pool sweep.

   Runs the hot paths that Glassdb_util.Pool parallelizes — POS-tree batch
   build and incremental update, multi-block batched proof assembly,
   per-shard persistence, and the PR-1 micro/macro workloads — once per
   pool size, and reports per-stage wall-clock speedup versus the serial
   pool (size 1).

   The headline assertion is not the speedup (which depends on the host's
   core count) but determinism: every stage also emits a digest over its
   outputs — ledger roots, encoded proof bytes, seeded metric blocks — and
   the sweep fails validation unless the digests are byte-identical at
   every pool size.  Results land in BENCH_5.json; the schema is pinned by
   the bench5-smoke alias (see {!validate}). *)

open Glassdb_util
open Benchkit
module Ledger = Glassdb.Ledger
module Node = Glassdb.Node
module Cluster = Glassdb.Cluster
module Config = Glassdb.Config
module Kv = Txnkit.Kv

(* Reuse bench1's JSON emitter/parser so the two BENCH files cannot drift
   in formatting. *)
open Bench1

(* v4: adds a per-pool-size "granularity" section — the deterministic
   task-sizing counters of the cost-aware pool (job/task counts, bypass
   jobs/items, declared cost units, the work threshold).  v3 added the
   per-pool-size "prof" section (glassdb.prof/v1) and the sampled
   "metrics" section; v2 carried stage rows + digests only; v1 was the
   speedup-only draft shape.  Speedup is reported, never gated: it
   depends on the host, and the regression gate treats it as volatile. *)
let schema_id = "glassdb.bench5/v4"

type scale = {
  s_keys : int;          (* keys in the POS-tree build *)
  s_updates : int;       (* keys touched by the incremental update *)
  s_blocks : int;        (* ledger blocks for the proofs stage *)
  s_keys_per_block : int;
  s_proof_groups : int;  (* (block, keys) groups proven in one call *)
  s_shards : int;        (* cluster shards for the persist stage *)
  s_txns : int;          (* committed txns per shard before the drain *)
}

let scale ~quick =
  if quick then
    { s_keys = 3_000; s_updates = 300; s_blocks = 6; s_keys_per_block = 120;
      s_proof_groups = 6; s_shards = 2; s_txns = 40 }
  else
    { s_keys = 120_000; s_updates = 4_000; s_blocks = 24;
      s_keys_per_block = 1_500; s_proof_groups = 24; s_shards = 4;
      s_txns = 400 }

let key_of = Printf.sprintf "key-%06d"

let sha_hex s = Hex.encode (Sha256.digest_string s)

(* --- the five stages, at whatever global pool size is in force --- *)

(* Each stage returns (wall seconds, digest over its deterministic
   outputs).  Wall-clock is the only field allowed to differ between pool
   sizes. *)

let stage_pos_build sc =
  let store = Storage.Node_store.create () in
  let cfg = Postree.Pos_tree.config store in
  let base =
    List.init sc.s_keys (fun i -> (key_of i, Printf.sprintf "value-%06d" i))
  in
  let t, wall =
    Wallclock.wall_timed (fun () ->
        Postree.Pos_tree.insert_batch (Postree.Pos_tree.empty cfg) base)
  in
  let digest =
    sha_hex
      (Printf.sprintf "%s|%d|%d"
         (Hex.encode (Postree.Pos_tree.root_hash t))
         (Storage.Node_store.node_count store)
         (Storage.Node_store.total_bytes store))
  in
  ((wall, digest), t)

let stage_pos_update sc t =
  let upd =
    List.init sc.s_updates (fun i ->
        (key_of (i * 7919 mod sc.s_keys), Printf.sprintf "updated-%06d" i))
  in
  let t2, wall =
    Wallclock.wall_timed (fun () -> Postree.Pos_tree.insert_batch t upd)
  in
  (wall, sha_hex (Hex.encode (Postree.Pos_tree.root_hash t2)))

let stage_proofs sc =
  let store = Storage.Node_store.create () in
  let ledger =
    List.fold_left
      (fun l b ->
        Ledger.append_block l ~time:(float_of_int b)
          ~writes:
            (List.init sc.s_keys_per_block (fun i ->
                 { Ledger.wkey = key_of ((b * sc.s_keys_per_block) + i);
                   wvalue = Printf.sprintf "v-%d-%d" b i;
                   wtid = Printf.sprintf "t%d" b }))
          ~txns:[])
      (Ledger.create (Ledger.config store))
      (List.init sc.s_blocks Fun.id)
  in
  let groups =
    List.init sc.s_proof_groups (fun g ->
        let b = g mod sc.s_blocks in
        ( b,
          List.init 16 (fun i ->
              key_of ((b * sc.s_keys_per_block) + (i * 31 mod sc.s_keys_per_block))) ))
  in
  let bps, wall =
    Wallclock.wall_timed (fun () -> Ledger.prove_inclusion_batches ledger groups)
  in
  let buf = Buffer.create 65536 in
  List.iter (Ledger.batch_proof_codec.Codec.encode buf) bps;
  let digest = Ledger.digest ledger in
  (wall,
   sha_hex
     (Printf.sprintf "%s|%d|%s"
        (Hex.encode digest.Ledger.root)
        digest.Ledger.block_no
        (Buffer.contents buf)))

let stage_persist sc =
  let cluster = Cluster.create (Config.make ~shards:sc.s_shards ()) in
  (* Commit a backlog on every shard directly (prepare/commit are Sim-free);
     the drain below is what Cluster.persist_all fans out. *)
  Array.iteri
    (fun shard nd ->
      for seq = 0 to sc.s_txns - 1 do
        let tid = Kv.txn_id ~client:shard ~seq in
        let rw =
          { Kv.reads = [];
            writes =
              [ (Printf.sprintf "s%d-%s" shard (key_of seq),
                 Printf.sprintf "w-%d-%d" shard seq) ] }
        in
        let stxn = Kv.sign ~sk:"bench5-client" ~tid ~client:shard rw in
        (match Node.prepare nd ~rw stxn with
         | Txnkit.Occ.Ok -> ()
         | Txnkit.Occ.Conflict m -> failwith ("bench5: unexpected conflict: " ^ m));
        ignore (Node.commit nd tid)
      done)
    (Cluster.nodes cluster);
  let blocks, wall =
    Wallclock.wall_timed (fun () -> Cluster.persist_all cluster ~now:1.0)
  in
  let buf = Buffer.create 256 in
  Array.iter
    (fun nd ->
      let d = Node.digest nd in
      Buffer.add_string buf
        (Printf.sprintf "%d:%d:%s;" (Node.shard_id nd) d.Ledger.block_no
           (Hex.encode d.Ledger.root)))
    (Cluster.nodes cluster);
  (wall, sha_hex (Printf.sprintf "%d|%s" blocks (Buffer.contents buf)))

let stage_micro ~quick =
  let rows, wall = Wallclock.wall_timed (fun () -> micro_sweep ~quick) in
  (wall, sha_hex (to_string (Arr (List.map json_of_micro rows))))

let stage_macro ~quick =
  let j, wall = Wallclock.wall_timed (fun () -> macro_run ~quick) in
  (wall, sha_hex (to_string j))

let run_stages ~quick () =
  let sc = scale ~quick in
  (* Explicit sequencing: list elements evaluate right-to-left in OCaml,
     and the metrics snapshot below must be taken right after the macro
     stage — the persist stage's fresh cluster re-registers the node
     gauges, which clears their sampled series. *)
  let (build, t) = stage_pos_build sc in
  let update = stage_pos_update sc t in
  let proofs = stage_proofs sc in
  let persist = stage_persist sc in
  let micro = stage_micro ~quick in
  let macro = stage_macro ~quick in
  (* The driver resets the Obs registry at macro-run start, so this
     snapshot covers exactly the macro stage above. *)
  let metrics =
    Obj (List.map (fun (k, v) -> (k, of_export v)) (Obs.Export.metrics_fields ()))
  in
  ( [ ("pos_build", build);
      ("pos_update", update);
      ("proofs", proofs);
      ("persist", persist);
      ("micro", micro);
      ("macro", macro) ],
    metrics )

(* --- the sweep --- *)

let stage_names =
  [ "pos_build"; "pos_update"; "proofs"; "persist"; "micro"; "macro" ]

let run ~quick ~pool_sizes () =
  if pool_sizes = [] then invalid_arg "Bench5.run: empty pool_sizes";
  let orig = Pool.global_size () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Prof.disable ();
      Pool.set_global_size orig)
    (fun () ->
      (* Profile the whole sweep: wall-clock timings (this is a bench, not
         a simulation), reset per pool size so each "prof" section covers
         exactly one size's stages. *)
      Obs.Prof.enable ~clock:Wallclock.now_s ();
      let runs =
        List.map
          (fun n ->
            Pool.set_global_size n;
            Obs.Prof.reset ();
            Printf.printf "bench5: sweeping pool size %d\n%!" n;
            let stages, metrics = run_stages ~quick () in
            let prof =
              Obj
                (("pool_size", Num (float_of_int n))
                 :: List.map
                      (fun (k, v) -> (k, of_export v))
                      (Obs.Export.prof_fields ()))
            in
            (* Task-sizing counters are pure functions of the workload,
               the pool size and the work threshold — no wall-clock input
               — so unlike "prof" this section is NOT volatile and the
               regression gate pins it. *)
            let gran =
              let p = (Obs.Prof.snapshot ()).Obs.Prof.s_pool in
              let num i = Num (float_of_int i) in
              Obj
                [ ("pool_size", num n);
                  ("work_threshold", num Pool.work_threshold);
                  ("jobs", num p.Obs.Prof.p_jobs);
                  ("parallel_jobs", num p.Obs.Prof.p_parallel_jobs);
                  ("bypass_jobs", num p.Obs.Prof.p_bypass_jobs);
                  ("bypass_items", num p.Obs.Prof.p_bypass_items);
                  ("tasks", num p.Obs.Prof.p_tasks);
                  ("cost_units", num p.Obs.Prof.p_cost_units) ]
            in
            (n, stages, prof, gran, metrics))
          pool_sizes
      in
      let metrics_digests =
        List.map (fun (_, _, _, _, m) -> sha_hex (to_string m)) runs
      in
      let metrics_digest_equal =
        match metrics_digests with
        | [] -> true
        | d :: rest -> List.for_all (String.equal d) rest
      in
      let runs = List.map (fun (n, stages, _, _, _) -> (n, stages)) runs
      and profs = List.map (fun (_, _, p, _, _) -> p) runs
      and grans = List.map (fun (_, _, _, g, _) -> g) runs
      and metrics0 =
        match runs with (_, _, _, _, m) :: _ -> m | [] -> assert false
      in
      let stage_row name =
        let per_size =
          List.map (fun (n, stages) -> (n, List.assoc name stages)) runs
        in
        let base_wall, base_digest =
          match per_size with
          | (_, r) :: _ -> r
          | [] -> assert false
        in
        let digest_equal =
          List.for_all
            (fun (_, (_, d)) -> String.equal d base_digest)
            per_size
        in
        ( digest_equal,
          Obj
            [ ("stage", Str name);
              ("digest", Str base_digest);
              ("digest_equal", Bool digest_equal);
              ("runs",
               Arr
                 (List.map
                    (fun (n, (wall, _)) ->
                      Obj
                        [ ("pool_size", Num (float_of_int n));
                          ("wall_s", Num wall);
                          ("speedup",
                           Num (if wall > 0. then base_wall /. wall else 1.)) ])
                    per_size)) ] )
      in
      let rows = List.map stage_row stage_names in
      let all_equal = List.for_all fst rows in
      to_string
        (Obj
           [ ("schema", Str schema_id);
             ("profile", Str (if quick then "smoke" else "full"));
             ("pool_sizes",
              Arr (List.map (fun n -> Num (float_of_int n)) pool_sizes));
             ("host_cores", Num (float_of_int (Domain.recommended_domain_count ())));
             ("stages", Arr (List.map snd rows));
             ("digests_equal", Bool all_equal);
             ("granularity", Arr grans);
             ("prof", Arr profs);
             ("metrics", metrics0);
             ("metrics_digest_equal", Bool metrics_digest_equal) ]))

(* --- schema validation (used by the bench5-smoke alias) --- *)

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
       let pool_sizes =
         match field "pool_sizes" j with
         | Some (Arr (_ :: _ as l)) -> l
         | _ -> raise (Bad "pool_sizes must be a non-empty array")
       in
       List.iter
         (function Num n when n >= 1. -> () | _ -> raise (Bad "pool_sizes entry"))
         pool_sizes;
       require_num j "host_cores";
       (* The determinism contract: same bytes at every pool size. *)
       (match field "digests_equal" j with
        | Some (Bool true) -> ()
        | _ -> raise (Bad "digests differ across pool sizes"));
       let stages =
         match field "stages" j with
         | Some (Arr (_ :: _ as l)) -> l
         | _ -> raise (Bad "stages must be a non-empty array")
       in
       let seen =
         List.map
           (fun st ->
             let name =
               match field "stage" st with
               | Some (Str s) -> s
               | _ -> raise (Bad "stage name")
             in
             (match field "digest" st with
              | Some (Str d) when String.length d > 0 -> ()
              | _ -> raise (Bad (name ^ ".digest")));
             (match field "digest_equal" st with
              | Some (Bool true) -> ()
              | _ -> raise (Bad (name ^ ": digest differs across pool sizes")));
             let runs =
               match field "runs" st with
               | Some (Arr (_ :: _ as l)) -> l
               | _ -> raise (Bad (name ^ ".runs"))
             in
             if List.length runs <> List.length pool_sizes then
               raise (Bad (name ^ ".runs length"));
             List.iter
               (fun r ->
                 require_num r "pool_size";
                 require_num r "wall_s";
                 (match field "speedup" r with
                  | Some (Num s) when s > 0. -> ()
                  | _ -> raise (Bad (name ^ ".speedup"))))
               runs;
             name)
           stages
       in
       List.iter
         (fun n ->
           if not (List.mem n seen) then raise (Bad ("missing stage " ^ n)))
         stage_names;
       (* v4: one deterministic task-sizing row per pool size. *)
       let grans =
         match field "granularity" j with
         | Some (Arr l) -> l
         | _ -> raise (Bad "granularity must be an array")
       in
       if List.length grans <> List.length pool_sizes then
         raise (Bad "granularity length must match pool_sizes");
       List.iter2
         (fun size g ->
           if field "pool_size" g <> Some size then
             raise (Bad "granularity.pool_size order");
           List.iter (require_num g)
             [ "work_threshold"; "jobs"; "parallel_jobs"; "bypass_jobs";
               "bypass_items"; "tasks"; "cost_units" ];
           let num k =
             match field k g with Some (Num n) -> n | _ -> assert false
           in
           if num "parallel_jobs" +. num "bypass_jobs" > num "jobs" then
             raise (Bad "granularity: job counts inconsistent");
           if num "cost_units" <= 0. then
             raise (Bad "granularity.cost_units must be > 0"))
         pool_sizes grans;
       (* v3: one glassdb.prof/v1 section per pool size, each with
          per-domain rows covering exactly that pool size and at least one
          named lock (the node-store shards are always exercised). *)
       let profs =
         match field "prof" j with
         | Some (Arr l) -> l
         | _ -> raise (Bad "prof must be an array")
       in
       if List.length profs <> List.length pool_sizes then
         raise (Bad "prof length must match pool_sizes");
       List.iter2
         (fun size p ->
           let n =
             match size with Num n -> int_of_float n | _ -> assert false
           in
           require_num p "pool_size";
           (match field "schema" p with
            | Some (Str "glassdb.prof/v1") -> ()
            | _ -> raise (Bad "prof schema tag"));
           (match field "enabled" p with
            | Some (Bool true) -> ()
            | _ -> raise (Bad "prof.enabled"));
           let pool =
             match field "pool" p with
             | Some (Obj _ as o) -> o
             | _ -> raise (Bad "prof.pool")
           in
           require_num pool "busy_s";
           require_num pool "tasks";
           (match field "domains" pool with
            | Some (Arr d) when List.length d = n -> ()
            | _ -> raise (Bad "prof.pool.domains length must equal pool_size"));
           (match field "locks" p with
            | Some (Arr (_ :: _)) -> ()
            | _ -> raise (Bad "prof.locks must be non-empty")))
         pool_sizes profs;
       (match field "metrics" j with
        | Some (Obj _ as m) -> validate_metrics m
        | _ -> raise (Bad "metrics section"));
       (match field "metrics_digest_equal" j with
        | Some (Bool true) -> ()
        | _ -> raise (Bad "metrics digests differ across pool sizes"));
       Ok ()
     with Bad m -> Error m)

let run_and_write ~quick ~pool_sizes ~path () =
  let text = run ~quick ~pool_sizes () in
  (match validate text with
   | Ok () -> ()
   | Error m -> failwith ("bench5: generated JSON failed validation: " ^ m));
  write_file path text;
  Printf.printf "bench5: wrote %s (%d bytes)\n%!" path (String.length text)
