open Glassdb_util
module Kv = Txnkit.Kv
module Pos_tree = Postree.Pos_tree

type shard_view = {
  mutable digest : Ledger.digest;
  mutable replica : Pos_tree.t;  (* re-executed state *)
  mutable prev_header_hash : Hash.t;
}

type t = {
  aid : int;
  cluster : Cluster.t;
  views : shard_view array;
  pks : (int, string) Hashtbl.t;
  mutable violation_count : int;
}

let create cluster ~id =
  let store = Storage.Node_store.create () in
  let pcfg =
    Pos_tree.config
      ~pattern_bits:(Cluster.config_of cluster).Config.pattern_bits
      store
  in
  { aid = id;
    cluster;
    views =
      Array.init (Cluster.shards cluster) (fun _ ->
          { digest = Ledger.genesis;
            replica = Pos_tree.empty pcfg;
            prev_header_hash = Hash.empty });
    pks = Hashtbl.create 16;
    violation_count = 0 }

let id t = t.aid

let register_client t ~client ~pk = Hashtbl.replace t.pks client pk

let digest_of_shard t s = t.views.(s).digest
let failures t = t.violation_count

type audit_report = {
  ar_shard : int;
  ar_blocks : int;
  ar_ok : bool;
  ar_latency : float;
}

(* Verify one block bundle against the replica state; on success the
   replica advances.  All the checking work is charged as auditor time by
   the caller. *)
let check_block t view (bundle : Node.block_bundle) =
  Work.with_component "audit" @@ fun () ->
  let header = bundle.Node.bb_header in
  let writes = bundle.Node.bb_writes in
  let txns = bundle.Node.bb_txns in
  let chain_ok = Hash.equal header.Ledger.prev_hash view.prev_header_hash in
  let sig_ok =
    List.for_all
      (fun stxn ->
        match Hashtbl.find_opt t.pks stxn.Kv.client with
        | None -> false
        | Some pk -> Kv.verify_signature ~pk stxn)
      txns
  in
  let vouched =
    (* Every write must appear in the write set of its signed txn. *)
    let by_tid = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace by_tid s.Kv.tid s) txns;
    List.for_all
      (fun w ->
        match Hashtbl.find_opt by_tid w.Ledger.wtid with
        | None -> false
        | Some stxn ->
          List.exists
            (fun (k, v) ->
              String.equal k w.Ledger.wkey && String.equal v w.Ledger.wvalue)
            stxn.Kv.rw.Kv.writes)
      writes
  in
  if not (chain_ok && sig_ok && vouched) then false
  else begin
    (* Re-execute: apply the writes exactly as Ledger.append_block does. *)
    let block_no = header.Ledger.block_no in
    let updates =
      List.map
        (fun w ->
          let prev =
            match Pos_tree.get view.replica w.Ledger.wkey with
            | Some payload ->
              let _, version, _ = Ledger.decode_payload payload in
              version
            | None -> -1
          in
          ( w.Ledger.wkey,
            Ledger.encode_payload ~value:w.Ledger.wvalue ~version:block_no
              ~prev ))
        writes
    in
    let replica' = Pos_tree.insert_batch view.replica updates in
    if Hash.equal (Pos_tree.root_hash replica') header.Ledger.state_root then begin
      view.replica <- replica';
      view.prev_header_hash <- Ledger.header_hash header;
      true
    end
    else false
  end

let audit_shard t ~shard =
  Obs.Trace.span ~cat:"auditor" ~track:(2000 + t.aid) ~name:"audit"
    ~attrs:[ ("shard", string_of_int shard) ]
  @@ fun () ->
  let started = Sim.now () in
  let view = t.views.(shard) in
  let fail () =
    t.violation_count <- t.violation_count + 1;
    { ar_shard = shard; ar_blocks = 0; ar_ok = false;
      ar_latency = Sim.now () -. started }
  in
  (* Fetch the server's current digest plus an append-only proof from our
     last audited position. *)
  let head =
    Cluster.call t.cluster ~shard ~req_bytes:64
      ~resp_bytes:(fun (_, p) ->
        64 + Ledger.append_proof_codec.Codec.size_bytes p)
      (fun nd ->
        (Node.digest nd, Node.prove_append_only nd ~old_block:view.digest.Ledger.block_no))
  in
  match head with
  | Error _ ->
    (* Unreachable server is not a violation; report zero progress. *)
    { ar_shard = shard; ar_blocks = 0; ar_ok = true;
      ar_latency = Sim.now () -. started }
  | Ok (new_digest, append_proof) ->
    let append_ok =
      Cost.charge Cost.default (fun () ->
          Ledger.verify_append_only ~old_digest:view.digest ~new_digest
            append_proof)
    in
    if not append_ok then fail ()
    else begin
      let from_block = view.digest.Ledger.block_no + 1 in
      let to_block = new_digest.Ledger.block_no in
      let ok = ref true in
      let blocks = ref 0 in
      (* VerifyBlock for each block in between, re-executing transactions. *)
      let b = ref from_block in
      while !ok && !b <= to_block do
        (match
           Cluster.call t.cluster ~shard ~req_bytes:24
             ~resp_bytes:(fun bundle ->
               match bundle with
               | Some bundle ->
                 256
                 + List.fold_left
                     (fun a w ->
                       a + String.length w.Ledger.wkey
                       + String.length w.Ledger.wvalue + 24)
                     0 bundle.Node.bb_writes
                 + List.fold_left
                     (fun a s -> a + Kv.signed_txn_bytes s)
                     0 bundle.Node.bb_txns
               | None -> 16)
             (fun nd -> Node.block_bundle nd !b)
         with
         | Error _ | Ok None -> ok := false
         | Ok (Some bundle) ->
           let this_ok =
             Cost.charge Cost.default (fun () -> check_block t view bundle)
           in
           if this_ok then incr blocks else ok := false);
        incr b
      done;
      if !ok then begin
        view.digest <- new_digest;
        { ar_shard = shard; ar_blocks = !blocks; ar_ok = true;
          ar_latency = Sim.now () -. started }
      end
      else fail ()
    end

let audit_all t =
  List.init (Cluster.shards t.cluster) (fun s -> audit_shard t ~shard:s)

let verify_user_digest t ~shard (user_digest : Ledger.digest) =
  let view = t.views.(shard) in
  if user_digest.Ledger.block_no <= view.digest.Ledger.block_no then begin
    (* The user is behind us: ask the server to link the user digest to
       ours. *)
    match
      Cluster.call t.cluster ~shard ~req_bytes:64
        ~resp_bytes:Ledger.append_proof_codec.Codec.size_bytes
        (fun nd -> Node.prove_append_only nd ~old_block:user_digest.Ledger.block_no)
    with
    | Error _ -> false
    | Ok proof ->
      let ok =
        Ledger.verify_append_only ~old_digest:user_digest
          ~new_digest:view.digest proof
      in
      if not ok then t.violation_count <- t.violation_count + 1;
      ok
  end
  else begin
    (* The user is ahead: catch up first, then compare. *)
    let report = audit_shard t ~shard in
    report.ar_ok
    && user_digest.Ledger.block_no <= t.views.(shard).digest.Ledger.block_no
  end

let gossip t peer =
  let ok = ref true in
  for s = 0 to Cluster.shards t.cluster - 1 do
    let mine = t.views.(s).digest and theirs = peer.views.(s).digest in
    let ahead, behind, behind_t =
      if mine.Ledger.block_no >= theirs.Ledger.block_no then (mine, theirs, peer)
      else (theirs, mine, t)
    in
    if behind.Ledger.block_no >= 0 then begin
      match
        Cluster.call t.cluster ~shard:s ~req_bytes:64
          ~resp_bytes:Ledger.append_proof_codec.Codec.size_bytes
          (fun nd -> Node.prove_append_only nd ~old_block:behind.Ledger.block_no)
      with
      | Error _ -> ()
      | Ok proof ->
        if
          not
            (Ledger.verify_append_only ~old_digest:behind ~new_digest:ahead
               proof)
        then begin
          ok := false;
          behind_t.violation_count <- behind_t.violation_count + 1
        end
    end
  done;
  !ok
