module Kv = Txnkit.Kv
module Error = Glassdb_util.Error
module Codec = Glassdb_util.Codec
module Rpc = Cluster.Rpc.Client
module Chunk_cache = Postree.Pos_tree.Chunk_cache

type pending = { due : float; promise : Node.promise }

type t = {
  rpc : Rpc.c;
  sk : string;
  cluster : Cluster.t;
  digests : Ledger.digest array;
  chunks : Chunk_cache.t; (* proof chunks this client has verified *)
  mutable pending : pending list;
  mutable failures : int;
}

(* Every client's cache lookups add to the same four counters. *)
let chunk_cache () =
  let counter name = Obs.Metrics.counter ~name:("glassdb.client." ^ name) () in
  let count n b =
    let n = counter n and b = counter b in
    fun ~bytes ->
      Obs.Metrics.inc n;
      Obs.Metrics.inc ~by:(float_of_int bytes) b
  in
  Chunk_cache.create
    ~on_hit:(count "proof_chunk_hits" "proof_chunk_hit_bytes")
    ~on_miss:(count "proof_chunk_misses" "proof_chunk_miss_bytes")
    ()

let create cluster ~id ~sk =
  { rpc = Rpc.create (Cluster.rpc cluster) ~id ~sk;
    sk;
    cluster;
    digests = Array.make (Cluster.shards cluster) Ledger.genesis;
    chunks = chunk_cache ();
    pending = [];
    failures = 0 }

let id t = Rpc.id t.rpc
let public_key t = t.sk
let digest_of_shard t s = t.digests.(s)
let adopt_digest t ~shard digest = t.digests.(shard) <- digest
let verification_failures t = t.failures
let rpc_retry_count t = Rpc.rpc_retry_count t.rpc
let pending_verifications t = List.length t.pending
let coordinator_aborts t = Rpc.coordinator_aborts t.rpc
let verify_delay t = (Cluster.config_of t.cluster).Config.verify_delay

(* Accept a new digest only when the server proves it extends [from] —
   the digest the proof was requested against, i.e. the client's view when
   the RPC left.  The cache may advance past [from] while the request is
   in flight (another fiber's verified reply landing first), so checking
   against the live cache would misread the server's honest proof-of-an-
   older-base as a violation.  The cache itself only ever moves forward. *)
let advance_digest t shard ~from ~proof new_digest =
  if Ledger.verify_append_only ~cache:t.chunks ~old_digest:from ~new_digest proof
  then begin
    if new_digest.Ledger.block_no > t.digests.(shard).Ledger.block_no then
      t.digests.(shard) <- new_digest;
    true
  end
  else begin
    t.failures <- t.failures + 1;
    false
  end

(* Users gossip digests with each other (Section 2.2 / 3.4.2): for every
   shard, the fresher party's digest must extend the staler one's, with
   the server supplying the append-only proof.  [Error (Proof_invalid _)]
   = a fork between the two views was detected; proof fetches are retried
   through packet loss so a fork cannot hide behind a dropped message. *)
let gossip a b =
  let shards = Cluster.shards a.cluster in
  let result = ref (Ok ()) in
  let note_err e =
    match (!result, e) with
    | Ok (), _ -> result := Error e
    | Error (Error.Proof_invalid _), _ -> () (* forks take precedence *)
    | Error _, Error.Proof_invalid _ -> result := Error e
    | Error _, _ -> ()
  in
  for s = 0 to shards - 1 do
    let da = a.digests.(s) and db = b.digests.(s) in
    let ahead, behind, behind_client =
      if da.Ledger.block_no >= db.Ledger.block_no then (da, db, b)
      else (db, da, a)
    in
    (* A genesis view extends to anything (the server returns the trivial
       proof); only skip when both views already agree. *)
    if ahead.Ledger.block_no >= 0 && not (Ledger.digest_equal ahead behind)
    then begin
      match
        Rpc.with_retry a.rpc ~label:"gossip" (fun () ->
            Cluster.call a.cluster ~shard:s ~req_bytes:64
              ~resp_bytes:Ledger.append_proof_codec.Codec.size_bytes
              (fun nd ->
                Node.prove_append_only nd ~old_block:behind.Ledger.block_no))
      with
      | Error e -> note_err e
      | Ok proof ->
        if
          Ledger.verify_append_only ~cache:a.chunks ~old_digest:behind
            ~new_digest:ahead proof
        then behind_client.digests.(s) <- ahead
        else begin
          a.failures <- a.failures + 1;
          note_err
            (Error.Proof_invalid (Printf.sprintf "gossip fork on shard %d" s))
        end
    end
  done;
  !result

(* --- transactions: the shared 2PC client --- *)

exception Abort = Rpc.Abort

type handle = Rpc.handle

let get = Rpc.get
let put = Rpc.put

let execute t body =
  Result.map (fun (value, promises) -> (value, List.concat promises))
    (Rpc.execute t.rpc body)

(* --- verified operations --- *)

type verification = {
  v_ok : bool;
  v_proof_bytes : int;
  v_latency : float;
  v_keys : int;
}

let queue_promises t promises =
  let due = Sim.now () +. verify_delay t in
  t.pending <-
    List.fold_left (fun acc p -> { due; promise = p } :: acc) t.pending promises

let verified_put t key value =
  match execute t (fun h -> put h key value) with
  | Error e -> Error e
  | Ok ((), []) -> Error (Error.Unavailable "no promise returned")
  | Ok ((), promise :: _) ->
    t.pending <-
      { due = Sim.now () +. verify_delay t; promise } :: t.pending;
    Ok promise

(* One verified read: a proof-carrying RPC to the key's shard, then the
   append-only check that advances the cached digest and the value proof
   ([current] demands the digest's own latest block).  [name] is both the
   span name and the retry label; [none] is the error for a [None] reply. *)
let verified_read t key ~name ~req_bytes ~none ~current read =
  Obs.Trace.span_ctx ~cat:"client" ~track:(id t) ~name @@ fun vctx ->
  let shard = Cluster.shard_of_key t.cluster key in
  let from = t.digests.(shard) in
  let started = Sim.now () in
  match
    Rpc.with_retry t.rpc ~ctx:vctx ~label:name (fun () ->
        Cluster.call t.cluster ~ctx:vctx ~shard
          ~req_bytes:(String.length key + req_bytes)
          ~resp_bytes:(fun r ->
            match r with
            | Some vr ->
              Ledger.proof_codec.Codec.size_bytes vr.Node.vr_proof
              + Ledger.append_proof_codec.Codec.size_bytes vr.Node.vr_append + 64
            | None -> 16)
          (fun nd -> read nd ~from))
  with
  | Error e -> Error e
  | Ok None -> Error (Error.Unavailable none)
  | Ok (Some (vr : Node.verified_read)) ->
    let ok, _cost =
      Cost.charged_time Cost.default (fun () ->
          let append_ok =
            advance_digest t shard ~from ~proof:vr.Node.vr_append
              vr.Node.vr_digest
          in
          let verify =
            if current then Ledger.verify_current else Ledger.verify_inclusion
          in
          let value_ok =
            verify ~cache:t.chunks ~digest:vr.Node.vr_digest ~key
              ~value:vr.Node.vr_value vr.Node.vr_proof
          in
          append_ok && value_ok)
    in
    if not ok then t.failures <- t.failures + 1;
    Ok
      ( vr.Node.vr_value,
        { v_ok = ok;
          v_proof_bytes =
            Ledger.proof_codec.Codec.size_bytes vr.Node.vr_proof
            + Ledger.append_proof_codec.Codec.size_bytes vr.Node.vr_append;
          v_latency = Sim.now () -. started;
          v_keys = 1 } )

let verified_get_latest t key =
  verified_read t key ~name:"verified-get" ~req_bytes:64
    ~none:"nothing persisted yet" ~current:true (fun nd ~from ->
      Node.get_verified_latest nd key ~from)

let verified_get_at t key ~block =
  verified_read t key ~name:"verified-get-at" ~req_bytes:72
    ~none:"no such block" ~current:false (fun nd ~from ->
      Node.get_verified_at nd key ~block ~from)

let get_history t key ~n =
  let shard = Cluster.shard_of_key t.cluster key in
  Cluster.call t.cluster ~shard ~req_bytes:(String.length key + 24)
    ~resp_bytes:(fun l -> 16 + List.fold_left (fun a (v, _) -> a + String.length v + 8) 0 l)
    (fun nd -> Node.get_history nd key ~n)

let flush_verifications t ?(force = false) () =
  let now = Sim.now () in
  let due, not_due =
    List.partition (fun p -> force || p.due <= now) t.pending
  in
  t.pending <- not_due;
  if due = [] then []
  else begin
    Obs.Trace.span_ctx ~cat:"client" ~track:(id t) ~name:"deferred-verify"
      ~attrs:[ ("keys", string_of_int (List.length due)) ]
    @@ fun fctx ->
    (* Batch by shard: one get-proof request carrying all due promises. *)
    let by_shard = Hashtbl.create 4 in
    List.iter
      (fun p ->
        let s = p.promise.Node.pr_shard in
        Hashtbl.replace by_shard s
          (p :: Option.value ~default:[] (Hashtbl.find_opt by_shard s)))
      due;
    Glassdb_util.Det.sorted_bindings ~cmp:Int.compare by_shard
    |> List.fold_left
      (fun acc (shard, ps) ->
        let from = t.digests.(shard) in
        let started = Sim.now () in
        let reply =
          Cluster.call t.cluster ~phase:("get-proof", List.length ps) ~ctx:fctx ~shard
            ~req_bytes:(64 * List.length ps)
            ~resp_bytes:(fun (proofs, appendp, _) ->
              List.fold_left
                (fun a p -> a + Ledger.batch_proof_codec.Codec.size_bytes p)
                0 proofs
              + Ledger.append_proof_codec.Codec.size_bytes appendp + 64)
            (fun nd ->
              Node.get_proofs nd (List.map (fun p -> p.promise) ps) ~from)
        in
        match reply with
        | Error _ ->
          (* Node unreachable: requeue. *)
          t.pending <- ps @ t.pending;
          acc
        | Ok (proofs, appendp, new_digest) ->
          (* The server proves every persisted block at once; promises
             beyond its digest are requeued for the next flush. *)
          let ready, not_ready =
            List.partition
              (fun p -> p.promise.Node.pr_block <= new_digest.Ledger.block_no)
              ps
          in
          t.pending <- not_ready @ t.pending;
          if ready = [] then acc
          else begin
            let batch_bytes =
              List.fold_left
                (fun a p -> a + Ledger.batch_proof_codec.Codec.size_bytes p)
                0 proofs
            in
            let ok, _ =
              Cost.charged_time Cost.default (fun () ->
                  (* One append-only check advances the digest for the whole
                     reply; each block's batch proof is verified once —
                     header, upper path and multiproof hashed a single time
                     no matter how many promises resolve against it. *)
                  let append_ok =
                    advance_digest t shard ~from ~proof:appendp new_digest
                  in
                  let by_block = Hashtbl.create 4 in
                  let proofs_ok =
                    List.for_all
                      (fun bp ->
                        Hashtbl.replace by_block bp.Ledger.bp_block bp;
                        Ledger.verify_inclusion_batch ~cache:t.chunks
                          ~digest:new_digest bp)
                      proofs
                  in
                  append_ok && proofs_ok
                  && List.for_all
                       (fun p ->
                         match
                           Hashtbl.find_opt by_block p.promise.Node.pr_block
                         with
                         | None -> false
                         | Some bp ->
                           (match
                              Ledger.batch_proof_value bp
                                p.promise.Node.pr_key
                            with
                            | Some (Some v) ->
                              String.equal v p.promise.Node.pr_value
                            | Some None | None -> false))
                       ready)
            in
            if not ok then t.failures <- t.failures + 1;
            { v_ok = ok;
              v_proof_bytes = batch_bytes;
              v_latency = Sim.now () -. started;
              v_keys = List.length ready }
            :: acc
          end)
      []
  end
