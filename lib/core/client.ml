module Kv = Txnkit.Kv
module Error = Glassdb_util.Error
module Codec = Glassdb_util.Codec

type pending = { due : float; promise : Node.promise }

type t = {
  cid : int;
  sk : string;
  cluster : Cluster.t;
  rpc_timeout : float;
  verify_delay : float;
  rpc_retries : int;
  retry_backoff : float;
  mutable seq : int;
  digests : Ledger.digest array;
  mutable pending : pending list;
  mutable failures : int;
  mutable retries : int;
  mutable abort_records : Kv.txn_id list;
  m_retries : Obs.Metrics.counter;
}

let create ?rpc_timeout ?verify_delay ?rpc_retries ?retry_backoff cluster ~id
    ~sk =
  let cfg = Cluster.config_of cluster in
  let dflt v field = match v with Some v -> v | None -> field in
  { cid = id;
    sk;
    cluster;
    rpc_timeout = dflt rpc_timeout cfg.Config.rpc_timeout;
    verify_delay = dflt verify_delay cfg.Config.verify_delay;
    rpc_retries = dflt rpc_retries cfg.Config.rpc_retries;
    retry_backoff = dflt retry_backoff cfg.Config.retry_backoff;
    seq = 0;
    digests = Array.make (Cluster.shards cluster) Ledger.genesis;
    pending = [];
    failures = 0;
    retries = 0;
    abort_records = [];
    m_retries =
      Obs.Metrics.counter ~name:"glassdb.client.rpc_retries" () }

let id t = t.cid
let public_key t = t.sk
let digest_of_shard t s = t.digests.(s)
let adopt_digest t ~shard digest = t.digests.(shard) <- digest
let verification_failures t = t.failures
let rpc_retry_count t = t.retries
let pending_verifications t = List.length t.pending
let coordinator_aborts t = List.rev t.abort_records

(* Bounded retry with exponential backoff.  Dispatch is on the error
   CONSTRUCTOR — only transient transport errors ({!Error.retryable}) are
   retried; conflicts, aborts and invalid proofs surface immediately.
   [ctx] is the span the RPC belongs to: retry markers attach to its trace
   instead of starting orphaned fresh events. *)
let with_retry t ?ctx ~label f =
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error e when Error.retryable e && attempt < t.rpc_retries ->
      t.retries <- t.retries + 1;
      Obs.Metrics.inc t.m_retries;
      Obs.Trace.instant ~cat:"client" ~track:t.cid ?parent:ctx
        ~attrs:[ ("op", label); ("attempt", string_of_int (attempt + 1)) ]
        "rpc.retry";
      Sim.sleep (t.retry_backoff *. (2. ** float_of_int attempt));
      go (attempt + 1)
    | Error _ as err -> err
  in
  go 0

(* Accept a new digest only when the server proves it extends [from] —
   the digest the proof was requested against, i.e. the client's view when
   the RPC left.  The cache may advance past [from] while the request is
   in flight (another fiber's verified reply landing first), so checking
   against the live cache would misread the server's honest proof-of-an-
   older-base as a violation.  The cache itself only ever moves forward. *)
let advance_digest t shard ~from ~proof new_digest =
  if Ledger.verify_append_only ~old_digest:from ~new_digest proof then begin
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
        with_retry a ~label:"gossip" (fun () ->
            Cluster.call a.cluster ~timeout:a.rpc_timeout ~shard:s ~req_bytes:64
              ~resp_bytes:Ledger.append_proof_codec.Codec.size_bytes
              (fun nd ->
                Node.prove_append_only nd ~old_block:behind.Ledger.block_no))
      with
      | Error e -> note_err e
      | Ok proof ->
        if
          Ledger.verify_append_only ~old_digest:behind ~new_digest:ahead proof
        then behind_client.digests.(s) <- ahead
        else begin
          a.failures <- a.failures + 1;
          note_err
            (Error.Proof_invalid (Printf.sprintf "gossip fork on shard %d" s))
        end
    end
  done;
  !result

(* --- transactions --- *)

exception Abort of Error.t

type handle = {
  client : t;
  tid : Kv.txn_id;
  hctx : Obs.Trace.ctx; (* the enclosing execute span's trace context *)
  mutable reads : (Kv.key * Kv.version) list;
  buffer : (Kv.key, Kv.value) Hashtbl.t;
  mutable write_order : Kv.key list; (* newest first *)
}

let fresh_handle t ~ctx =
  t.seq <- t.seq + 1;
  { client = t;
    tid = Kv.txn_id ~client:t.cid ~seq:t.seq;
    hctx = ctx;
    reads = [];
    buffer = Hashtbl.create 8;
    write_order = [] }

let get h key =
  match Hashtbl.find_opt h.buffer key with
  | Some v -> Some v (* read-your-writes *)
  | None ->
    let t = h.client in
    let shard = Cluster.shard_of_key t.cluster key in
    (match
       with_retry t ~ctx:h.hctx ~label:"read" (fun () ->
           Cluster.call t.cluster ~timeout:t.rpc_timeout ~ctx:h.hctx ~shard
             ~req_bytes:(String.length key + 16)
             ~resp_bytes:(fun r ->
               match r with Some (v, _) -> String.length v + 16 | None -> 16)
             (fun nd -> Node.get nd key))
     with
     | Error e -> raise (Abort e)
     | Ok None ->
       h.reads <- (key, -1) :: h.reads;
       None
     | Ok (Some (v, version)) ->
       h.reads <- (key, version) :: h.reads;
       Some v)

let put h key value =
  if not (Hashtbl.mem h.buffer key) then h.write_order <- key :: h.write_order;
  Hashtbl.replace h.buffer key value

let rw_sets_by_shard h =
  let t = h.client in
  let tbl = Hashtbl.create 8 in
  let touch shard =
    match Hashtbl.find_opt tbl shard with
    | Some rw -> rw
    | None ->
      let rw = (ref [], ref []) in
      Hashtbl.replace tbl shard rw;
      rw
  in
  List.iter
    (fun (k, ver) ->
      let reads, _ = touch (Cluster.shard_of_key t.cluster k) in
      reads := (k, ver) :: !reads)
    h.reads;
  List.iter
    (fun k ->
      let _, writes = touch (Cluster.shard_of_key t.cluster k) in
      writes := (k, Hashtbl.find h.buffer k) :: !writes)
    (List.rev h.write_order);
  Glassdb_util.Det.sorted_bindings ~cmp:Int.compare tbl
  |> List.map (fun (shard, (reads, writes)) ->
         (shard, { Kv.reads = !reads; writes = !writes }))

(* Fan an RPC out to several shards and join all answers.  Every call is
   time-bounded (each attempt sleeps out at most the RPC timeout, retries
   are finite), so a plain ivar read cannot hang. *)
let fan_out calls =
  let ivs =
    List.map
      (fun (shard, call) ->
        let iv = Sim.Ivar.create () in
        Sim.spawn (fun () -> Sim.Ivar.fill iv (call ()));
        (shard, iv))
      calls
  in
  List.map (fun (shard, iv) -> (shard, Sim.Ivar.read iv)) ivs

(* Release prepare state across [per_shard], retrying through transient
   errors so a partitioned-but-alive shard does not keep the write locks
   once the link heals.  Shards that stay unreachable past the retry
   budget either crashed (locks already wiped, replay conservatively
   aborts the undecided prepare) or will reject the stale tid later; the
   coordinator records the abort either way. *)
let abort_round t ?ctx ~tid per_shard =
  t.abort_records <- tid :: t.abort_records;
  ignore
    (fan_out
       (List.map
          (fun (shard, _) ->
            ( shard,
              fun () ->
                with_retry t ?ctx ~label:"abort" (fun () ->
                    Cluster.call t.cluster ~timeout:t.rpc_timeout ?ctx ~shard ~req_bytes:32
                      ~resp_bytes:(fun _ -> 8)
                      (fun nd -> Node.abort nd tid)) ))
          per_shard))

let execute t body =
  Obs.Trace.span_ctx ~cat:"client" ~track:t.cid ~name:"execute" @@ fun ectx ->
  let h = fresh_handle t ~ctx:ectx in
  match body h with
  | exception Abort err ->
    (* Unconditional cleanup: even though reads take no OCC locks, any
       shard this transaction already spoke to must forget the tid. *)
    (match rw_sets_by_shard h with
     | [] -> ()
     | per_shard -> abort_round t ~ctx:ectx ~tid:h.tid per_shard);
    Error err
  | value ->
    let per_shard = rw_sets_by_shard h in
    if per_shard = [] then Ok (value, [])
    else begin
      (* Prepare round.  The transaction is signed once over its whole
         read/write set; every shard validates only its own slice but
         stores the full signed transaction for auditing.  Retransmitted
         prepares are idempotent server-side, so retries are safe. *)
      let full_rw =
        { Kv.reads = List.rev h.reads;
          writes =
            List.rev_map (fun k -> (k, Hashtbl.find h.buffer k)) h.write_order }
      in
      let stxn = Kv.sign ~sk:t.sk ~tid:h.tid ~client:t.cid full_rw in
      let verdicts =
        Obs.Trace.span_ctx ~cat:"client" ~track:t.cid ~parent:ectx
          ~name:"prepare" (fun pctx ->
            fan_out
              (List.map
                 (fun (shard, rw) ->
                   ( shard,
                     fun () ->
                       with_retry t ~ctx:pctx ~label:"prepare" (fun () ->
                           Cluster.call t.cluster ~timeout:t.rpc_timeout ~phase:("prepare", 1) ~ctx:pctx ~shard
                             ~req_bytes:(Kv.signed_txn_bytes stxn)
                             ~resp_bytes:(fun _ -> 8)
                             (fun nd -> Node.prepare nd ~rw stxn)) ))
                 per_shard))
      in
      let all_ok =
        List.for_all
          (function _, Ok Txnkit.Occ.Ok -> true | _ -> false)
          verdicts
      in
      if all_ok then begin
        let promise_lists =
          Obs.Trace.span_ctx ~cat:"client" ~track:t.cid ~parent:ectx
            ~name:"commit" (fun cctx ->
              fan_out
                (List.map
                   (fun (shard, _) ->
                     ( shard,
                       fun () ->
                         with_retry t ~ctx:cctx ~label:"commit" (fun () ->
                             Cluster.call t.cluster ~timeout:t.rpc_timeout ~phase:("commit", 1) ~ctx:cctx ~shard
                               ~req_bytes:32
                               ~resp_bytes:(fun ps -> 16 + (48 * List.length ps))
                               (fun nd -> Node.commit nd ~ctx:cctx h.tid)) ))
                   per_shard))
        in
        let promises =
          List.concat_map
            (function _, Ok ps -> ps | _, Error _ -> [])
            promise_lists
        in
        Ok (value, promises)
      end
      else begin
        (* Abort round: unconditional, with the same retry budget as any
           other RPC, so prepare state cannot leak on shards that answered
           Ok while a sibling conflicted or timed out. *)
        abort_round t ~ctx:ectx ~tid:h.tid per_shard;
        let err =
          (* A conflict is the most informative verdict; otherwise the
             first transport error explains the abort. *)
          List.fold_left
            (fun acc (_, v) ->
              match (acc, v) with
              | Some (Error.Txn_conflict _), _ -> acc
              | _, Ok (Txnkit.Occ.Conflict r) -> Some (Error.Txn_conflict r)
              | None, Error e -> Some e
              | acc, _ -> acc)
            None verdicts
        in
        Error
          (match err with
           | Some e -> e
           | None -> Error.Txn_conflict "conflict")
      end
    end

(* --- verified operations --- *)

type verification = {
  v_ok : bool;
  v_proof_bytes : int;
  v_latency : float;
  v_keys : int;
}

let queue_promises t promises =
  let due = Sim.now () +. t.verify_delay in
  t.pending <-
    List.fold_left (fun acc p -> { due; promise = p } :: acc) t.pending promises

let verified_put t key value =
  match execute t (fun h -> put h key value) with
  | Error e -> Error e
  | Ok ((), []) -> Error (Error.Unavailable "no promise returned")
  | Ok ((), promise :: _) ->
    t.pending <-
      { due = Sim.now () +. t.verify_delay; promise } :: t.pending;
    Ok promise

(* One verified read: a proof-carrying RPC to the key's shard, then the
   append-only check that advances the cached digest and the value proof
   ([current] demands the digest's own latest block).  [name] is both the
   span name and the retry label; [none] is the error for a [None] reply. *)
let verified_read t key ~name ~req_bytes ~none ~current read =
  Obs.Trace.span_ctx ~cat:"client" ~track:t.cid ~name @@ fun vctx ->
  let shard = Cluster.shard_of_key t.cluster key in
  let from = t.digests.(shard) in
  let started = Sim.now () in
  match
    with_retry t ~ctx:vctx ~label:name (fun () ->
        Cluster.call t.cluster ~timeout:t.rpc_timeout ~ctx:vctx ~shard
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
            verify ~digest:vr.Node.vr_digest ~key ~value:vr.Node.vr_value
              vr.Node.vr_proof
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
  match
    Cluster.call t.cluster ~timeout:t.rpc_timeout ~shard ~req_bytes:(String.length key + 24)
      ~resp_bytes:(fun l -> 16 + List.fold_left (fun a (v, _) -> a + String.length v + 8) 0 l)
      (fun nd -> Node.get_history nd key ~n)
  with
  | Error _ -> []
  | Ok l -> l

let flush_verifications t ?(force = false) () =
  let now = Sim.now () in
  let due, not_due =
    List.partition (fun p -> force || p.due <= now) t.pending
  in
  t.pending <- not_due;
  if due = [] then []
  else begin
    Obs.Trace.span_ctx ~cat:"client" ~track:t.cid ~name:"deferred-verify"
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
          Cluster.call t.cluster ~timeout:t.rpc_timeout ~phase:("get-proof", List.length ps) ~ctx:fctx ~shard
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
                        Ledger.verify_inclusion_batch ~digest:new_digest bp)
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
