(* The serial stage-digest benchmark.

   Runs the library's heaviest hashing paths once — POS-tree batch build
   and incremental update, multi-block batched proof assembly, per-shard
   persistence, and the PR-1 micro/macro workloads — and reports each
   stage's wall-clock time next to a digest over its outputs: ledger
   roots, encoded proof bytes, seeded metric blocks.  The digests are the
   contract: a change that alters any stage's output changes its digest,
   and the regression gate (tools/benchdiff/benchgate.ml) pins them
   against BENCH_5.gate.json.  Results land in BENCH_5.json; the schema is
   pinned by the bench5-smoke alias (see {!validate}). *)

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
open Obs.Export

(* v5: one serial run — stage rows (digest + wall_s) and the sampled
   "metrics" section.  v4 and earlier swept domain-pool sizes and carried
   per-size runs with speedups, "granularity" and "prof" sections; v1 was
   the speedup-only draft shape.  Wall time is reported, never gated: it
   depends on the host, and the regression gate treats it as volatile. *)
let schema_id = "glassdb.bench5/v5"

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

(* --- the six stages --- *)

(* Each stage returns (wall seconds, digest over its deterministic
   outputs).  Wall-clock is the only field allowed to differ between
   runs. *)

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
  (* Commit a backlog on every shard directly (prepare/commit are Sim-free),
     then drain every shard with Cluster.persist_all. *)
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
    Obj (Obs.Export.metrics_fields ())
  in
  ( [ ("pos_build", build);
      ("pos_update", update);
      ("proofs", proofs);
      ("persist", persist);
      ("micro", micro);
      ("macro", macro) ],
    metrics )

let stage_names =
  [ "pos_build"; "pos_update"; "proofs"; "persist"; "micro"; "macro" ]

(* The fields that vary between runs and hosts; everything else in the
   document is the deterministic contract the regression gate pins. *)
let volatile = [ "wall_s"; "host_cores" ]

let run ~quick () =
  let stages, metrics = run_stages ~quick () in
  to_string
    (Obj
       [ ("schema", Str schema_id);
         ("profile", Str (if quick then "smoke" else "full"));
         ("host_cores", Num (float_of_int (Domain.recommended_domain_count ())));
         ("stages",
          Arr
            (List.map
               (fun (name, (wall, digest)) ->
                 Obj
                   [ ("stage", Str name);
                     ("digest", Str digest);
                     ("wall_s", Num wall) ])
               stages));
         ("metrics", metrics) ])

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
       require_num j "host_cores";
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
             require_num st "wall_s";
             name)
           stages
       in
       List.iter
         (fun n ->
           if not (List.mem n seen) then raise (Bad ("missing stage " ^ n)))
         stage_names;
       (match field "metrics" j with
        | Some (Obj _ as m) -> validate_metrics m
        | _ -> raise (Bad "metrics section"));
       Ok ()
     with Bad m -> Error m)

let run_and_write ~quick ~path () =
  let text = run ~quick () in
  (match validate text with
   | Ok () -> ()
   | Error m -> failwith ("bench5: generated JSON failed validation: " ^ m));
  write_file path text;
  Printf.printf "bench5: wrote %s (%d bytes)\n%!" path (String.length text)
