open Glassdb_util
open System
module Kv = Txnkit.Kv

let merge_phase_stats per_node =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun stats ->
      List.iter
        (fun (phase, s) ->
          match Hashtbl.find_opt tbl phase with
          | Some acc -> Hashtbl.replace tbl phase (Stats.merge acc s)
          | None -> Hashtbl.replace tbl phase s)
        stats)
    per_node;
  Det.sorted_bindings ~cmp:String.compare tbl

(* --- GlassDB --- *)

(* The deployment [p] describes.  The baselines run on its network and RPC
   policy too (see [Glassdb.Config.dist]). *)
let config p =
  Glassdb.Config.make ~shards:p.shards ~workers:p.workers
    ~persist_interval:p.persist_interval ~batching:p.batching
    ~sync_persist:p.sync_persist ~pattern_bits:p.pattern_bits
    ~rpc_timeout:p.rpc_timeout ~verify_delay:p.verify_delay ()

let make_glassdb name p =
  let cl = Glassdb.Cluster.create (config p) in
  let mk_client i =
    let c = Glassdb.Client.create cl ~id:i ~sk:(Printf.sprintf "sk-%d" i) in
    let to_v (v : Glassdb.Client.verification) =
      { ok = v.Glassdb.Client.v_ok;
        proof_bytes = v.Glassdb.Client.v_proof_bytes;
        latency = v.Glassdb.Client.v_latency;
        keys = v.Glassdb.Client.v_keys }
    in
    let execute ~verified body =
      match
        Glassdb.Client.execute c (fun h ->
            body
              { tget = Glassdb.Client.get h;
                tput = Glassdb.Client.put h })
      with
      | Ok (_, promises) ->
        if verified then Glassdb.Client.queue_promises c promises;
        Ok ()
      | Error e -> Error e
      | exception Glassdb.Client.Abort e -> Error e
    in
    { c_execute = execute ~verified:false;
      c_execute_verified = execute ~verified:true;
      c_verified_put =
        (fun k v ->
          match Glassdb.Client.verified_put c k v with
          | Ok _ -> Ok ()
          | Error e -> Error e);
      c_verified_get_latest =
        (fun k ->
          match Glassdb.Client.verified_get_latest c k with
          | Ok (_, v) -> Ok (to_v v)
          | Error e -> Error e);
      c_verified_get_historical =
        (fun k ->
          let shard = Glassdb.Cluster.shard_of_key cl k in
          let d = Glassdb.Client.digest_of_shard c shard in
          if d.Glassdb.Ledger.block_no < 0 then
            Error (Error.Unavailable "no history yet")
          else begin
            let block = max 0 (d.Glassdb.Ledger.block_no - 3) in
            match Glassdb.Client.verified_get_at c k ~block with
            | Ok (_, v) -> Ok (to_v v)
            | Error e -> Error e
          end);
      c_flush = (fun ~force -> List.map to_v (Glassdb.Client.flush_verifications c ~force ()));
      c_history =
        (fun k ~n -> Result.map List.length (Glassdb.Client.get_history c k ~n));
      c_failures = (fun () -> Glassdb.Client.verification_failures c) }
  in
  { a_name = name;
    a_start = (fun () -> Glassdb.Cluster.start cl);
    a_stop = (fun () -> Glassdb.Cluster.stop cl);
    a_client = mk_client;
    a_storage_bytes = (fun () -> Glassdb.Cluster.total_storage_bytes cl);
    a_commits = (fun () -> Glassdb.Cluster.total_commits cl);
    a_aborts = (fun () -> Glassdb.Cluster.total_aborts cl);
    a_blocks = (fun () -> Glassdb.Cluster.total_blocks cl);
    a_phase_stats =
      (fun () ->
        merge_phase_stats
          (Array.to_list
             (Array.map Glassdb.Node.phase_stats (Glassdb.Cluster.nodes cl))));
    a_reset_stats = (fun () -> Glassdb.Cluster.reset_stats cl);
    a_crash = (fun i -> Glassdb.Cluster.crash_node cl i);
    a_recover = (fun i -> Glassdb.Cluster.recover_node cl i) }

let glassdb = { name = "GlassDB"; make = (fun p -> make_glassdb "GlassDB" p) }

let glassdb_no_ba =
  { name = "GlassDB-no-BA";
    make = (fun p -> make_glassdb "GlassDB-no-BA" { p with batching = false }) }

let glassdb_no_dv_no_ba =
  { name = "GlassDB-no-DV-no-BA";
    make =
      (fun p ->
        make_glassdb "GlassDB-no-DV-no-BA"
          { p with batching = false; sync_persist = true; verify_delay = 0. }) }

(* --- the baselines: QLDB* and LedgerDB* --- *)

(* A baseline's verified read: [fetch] the key's current-value proof, take
   the claimed value from the proof's own journal [entry], and [verify]
   it; [none] explains a missing proof. *)
let verified_get ~fetch ~entry ~verify ~bytes ~none failures k =
  let started = Sim.now () in
  match fetch k with
  | Error e -> Error e
  | Ok None -> Error (Error.Unavailable none)
  | Ok (Some proof) ->
    let value =
      Option.bind (entry proof) (fun e ->
          Option.bind (Kv.entry_writes e) (List.assoc_opt k))
    in
    let ok =
      Cost.charge Cost.default (fun () ->
          match value with
          | None -> false
          | Some v -> verify ~key:k ~value:v proof)
    in
    if not ok then incr failures;
    Ok
      { ok;
        proof_bytes = bytes proof;
        latency = Sim.now () -. started;
        keys = 1 }

(* --- QLDB* --- *)

let make_qldb p =
  let nodes =
    Array.init p.shards (fun i ->
        Qldb.Node.create
          { Qldb.default_config with Qldb.workers = p.workers }
          ~shard_id:i)
  in
  let cl = Glassdb.Config.dist (config p) Qldb.Cluster.create nodes in
  let mk_client i =
    let c = Qldb.Cluster.Client.create cl ~id:i ~sk:(Printf.sprintf "sk-%d" i) in
    let failures = ref 0 in
    let verified_get =
      verified_get ~none:"key unwritten" failures
        ~fetch:(fun k ->
          Qldb.Cluster.Client.with_retry c ~label:"get-proof" (fun () ->
              Qldb.Cluster.call cl ~phase:("get-proof", 1)
                ~shard:(Qldb.Cluster.shard_of_key cl k)
                ~req_bytes:(String.length k + 32)
                ~resp_bytes:(function
                  | Some p -> Qldb.Node.current_proof_bytes p
                  | None -> 16)
                (fun nd -> Qldb.Node.get_verified_latest nd k)))
        ~entry:(fun p -> Some p.Qldb.Node.cp_entry)
        ~verify:(fun ~key ~value p ->
          Qldb.Node.verify_current ~digest:p.Qldb.Node.cp_digest ~key ~value p)
        ~bytes:Qldb.Node.current_proof_bytes
    in
    let execute ~verified body =
      let written = ref [] in
      match
        Qldb.Cluster.Client.execute c (fun h ->
            body
              { tget = Qldb.Cluster.Client.get h;
                tput =
                  (fun k v ->
                    if verified then written := k :: !written;
                    Qldb.Cluster.Client.put h k v) })
      with
      | Ok _ ->
        (* No deferred verification in QLDB: fetch and check each written
           key's proof immediately. *)
        List.iter (fun k -> ignore (verified_get k)) !written;
        Ok ()
      | Error e -> Error e
      | exception Qldb.Cluster.Client.Abort e -> Error e
    in
    { c_execute = execute ~verified:false;
      c_execute_verified = execute ~verified:true;
      c_verified_put =
        (fun k v ->
          (* QLDB has no deferred verification: write, then immediately
             fetch and check the proof. *)
          match
            Qldb.Cluster.Client.execute c (fun h ->
                Qldb.Cluster.Client.put h k v)
          with
          | Error e -> Error e
          | Ok _ ->
            (match verified_get k with
             | Ok _ -> Ok ()
             | Error e -> Error e));
      c_verified_get_latest = verified_get;
      c_verified_get_historical = verified_get;
      c_flush = (fun ~force:_ -> []);
      c_history = (fun _ ~n:_ -> Ok 0);
      c_failures = (fun () -> !failures) }
  in
  { a_name = "QLDB*";
    a_start = (fun () -> ());
    a_stop = (fun () -> ());
    a_client = mk_client;
    a_storage_bytes =
      (fun () -> Array.fold_left (fun a n -> a + Qldb.Node.storage_bytes n) 0 nodes);
    a_commits =
      (fun () -> Array.fold_left (fun a n -> a + Qldb.Node.commit_count n) 0 nodes);
    a_aborts =
      (fun () -> Array.fold_left (fun a n -> a + Qldb.Node.abort_count n) 0 nodes);
    a_blocks =
      (fun () -> Array.fold_left (fun a n -> a + Qldb.Node.log_size n) 0 nodes);
    a_phase_stats =
      (fun () ->
        merge_phase_stats (Array.to_list (Array.map Qldb.Node.phase_stats nodes)));
    a_reset_stats = (fun () -> Array.iter Qldb.Node.reset_stats nodes);
    a_crash = (fun i -> Qldb.Node.crash nodes.(i));
    a_recover = (fun i -> Qldb.Node.recover nodes.(i)) }

let qldb = { name = "QLDB*"; make = make_qldb }

(* --- LedgerDB* --- *)

let make_ledgerdb p =
  let nodes =
    Array.init p.shards (fun i ->
        Ledgerdb.Node.create
          { Ledgerdb.default_config with
            Ledgerdb.workers = p.workers;
            batch_interval = p.persist_interval }
          ~shard_id:i)
  in
  let cl = Glassdb.Config.dist (config p) Ledgerdb.Cluster.create nodes in
  let running = ref false in
  let batcher nd =
    let pool = Ledgerdb.Node.workers nd in
    let rec loop () =
      if !running then begin
        Sim.sleep p.persist_interval;
        if !running && Ledgerdb.Node.alive nd then
          (* The bAMT updater occupies one worker thread and pushes its
             writes through the shared disk. *)
          Sim.Resource.use pool (fun () ->
              let t0 = Sim.now () in
              let folded =
                Ledgerdb.Cluster.charge nd (fun () ->
                    Ledgerdb.Node.flush_batch nd)
              in
              if folded > 0 then
                Ledgerdb.Node.note_phase nd "persist"
                  ((Sim.now () -. t0) /. float_of_int folded));
        loop ()
      end
    in
    loop ()
  in
  let mk_client i =
    let c = Ledgerdb.Cluster.Client.create cl ~id:i ~sk:(Printf.sprintf "sk-%d" i) in
    let failures = ref 0 in
    let pending = ref [] in (* (due, key, value) *)
    let verified_get =
      verified_get ~none:"not yet covered" failures
        ~fetch:(fun k ->
          Ledgerdb.Cluster.Client.with_retry c ~label:"get-proof" (fun () ->
              Ledgerdb.Cluster.call cl ~phase:("get-proof", 1)
                ~shard:(Ledgerdb.Cluster.shard_of_key cl k)
                ~req_bytes:(String.length k + 32)
                ~resp_bytes:(function
                  | Some p -> Ledgerdb.Node.current_proof_bytes p
                  | None -> 16)
                (fun nd -> Ledgerdb.Node.get_verified_latest nd k)))
        ~entry:(fun p ->
          match List.rev p.Ledgerdb.Node.lp_clues with
          | (_, entry, _) :: _ -> Some entry
          | [] -> None)
        ~verify:(fun ~key ~value p ->
          Ledgerdb.Node.verify_current ~digest:p.Ledgerdb.Node.lp_digest ~key
            ~value p)
        ~bytes:Ledgerdb.Node.current_proof_bytes
    in
    let execute ~verified body =
      let written = ref [] in
      match
        Ledgerdb.Cluster.Client.execute c (fun h ->
            body
              { tget = Ledgerdb.Cluster.Client.get h;
                tput =
                  (fun k v ->
                    if verified then written := k :: !written;
                    Ledgerdb.Cluster.Client.put h k v) })
      with
      | Ok _ ->
        let due = Sim.now () +. p.verify_delay in
        List.iter (fun k -> pending := (due, k) :: !pending) !written;
        Ok ()
      | Error e -> Error e
      | exception Ledgerdb.Cluster.Client.Abort e -> Error e
    in
    { c_execute = execute ~verified:false;
      c_execute_verified = execute ~verified:true;
      c_verified_put =
        (fun k v ->
          match
            Ledgerdb.Cluster.Client.execute c (fun h ->
                Ledgerdb.Cluster.Client.put h k v)
          with
          | Error e -> Error e
          | Ok _ ->
            pending := (Sim.now () +. p.verify_delay, k) :: !pending;
            Ok ());
      c_verified_get_latest = verified_get;
      c_verified_get_historical = verified_get;
      c_flush =
        (fun ~force ->
          let now = Sim.now () in
          let due, keep =
            List.partition (fun (d, _) -> force || d <= now) !pending
          in
          pending := keep;
          List.filter_map
            (fun (_, k) ->
              match verified_get k with
              | Ok v -> Some v
              | Error _ ->
                (* Not covered yet: requeue. *)
                pending := (now, k) :: !pending;
                None)
            due);
      c_history = (fun _ ~n:_ -> Ok 0);
      c_failures = (fun () -> !failures) }
  in
  { a_name = "LedgerDB*";
    a_start =
      (fun () ->
        running := true;
        Array.iter (fun nd -> Sim.spawn (fun () -> batcher nd)) nodes);
    a_stop = (fun () -> running := false);
    a_client = mk_client;
    a_storage_bytes =
      (fun () ->
        Array.fold_left (fun a n -> a + Ledgerdb.Node.storage_bytes n) 0 nodes);
    a_commits =
      (fun () ->
        Array.fold_left (fun a n -> a + Ledgerdb.Node.commit_count n) 0 nodes);
    a_aborts =
      (fun () ->
        Array.fold_left (fun a n -> a + Ledgerdb.Node.abort_count n) 0 nodes);
    a_blocks =
      (fun () ->
        Array.fold_left (fun a n -> a + Ledgerdb.Node.block_count n) 0 nodes);
    a_phase_stats =
      (fun () ->
        merge_phase_stats
          (Array.to_list (Array.map Ledgerdb.Node.phase_stats nodes)));
    a_reset_stats = (fun () -> Array.iter Ledgerdb.Node.reset_stats nodes);
    a_crash = (fun i -> Ledgerdb.Node.crash nodes.(i));
    a_recover = (fun i -> Ledgerdb.Node.recover nodes.(i)) }

let ledgerdb = { name = "LedgerDB*"; make = make_ledgerdb }

(* --- Trillian --- *)

let make_trillian p =
  let t =
    Trillian.create
      { Trillian.default_config with
        Trillian.workers = p.workers;
        sequence_interval = p.persist_interval }
  in
  let net = Net.create () in
  let running = ref false in
  let sequencer () =
    let rec loop () =
      if !running then begin
        Sim.sleep p.persist_interval;
        if !running then
          ignore (Cost.charge (Trillian.cost t) (fun () -> Trillian.sequence t));
        loop ()
      end
    in
    loop ()
  in
  (* Every operation pays the RPC plus the cross-process MySQL backend. *)
  let call ?phase ~req_bytes ~resp_bytes f =
    let iv = Sim.Ivar.create () in
    Sim.spawn (fun () ->
        Net.send net ~bytes_len:req_bytes;
        let arrived = Sim.now () in
        let v =
          Sim.Resource.use (Trillian.workers t) (fun () ->
              (* The cross-process MySQL round trips serialize on the
                 single backend instance. *)
              Sim.Resource.use (Trillian.backend t) (fun () ->
                  Sim.sleep (Trillian.backend_delay t));
              Cost.charge (Trillian.cost t) (fun () -> f ()))
        in
        (match phase with
         | Some name -> Trillian.note_phase t name (Sim.now () -. arrived)
         | None -> ());
        Net.send net ~bytes_len:(resp_bytes v);
        ignore (Sim.Ivar.try_fill iv v));
    Sim.Ivar.read_timeout iv p.rpc_timeout
  in
  let mk_client _i =
    let failures = ref 0 in
    let verified_get k =
      let started = Sim.now () in
      match
        call ~phase:"get-proof" ~req_bytes:(String.length k + 24)
          ~resp_bytes:(fun r ->
            match r with
            | Some (_, pf) -> Trillian.read_proof_bytes pf
            | None -> 16)
          (fun () -> Trillian.get_verified t k)
      with
      | None -> Error (Error.Timeout "rpc")
      | Some None -> Error (Error.Unavailable "not mapped yet")
      | Some (Some (v, proof)) ->
        let d = proof.Trillian.rp_digest in
        let ok =
          Cost.charge Cost.default (fun () ->
              Trillian.verify_read ~digest:d ~key:k ~value:v proof)
        in
        if not ok then incr failures;
        Ok
          { ok;
            proof_bytes = Trillian.read_proof_bytes proof;
            latency = Sim.now () -. started;
            keys = 1 }
    in
    { c_execute =
        (fun _ -> Error (Error.Unavailable "trillian: transactions unsupported"));
      c_execute_verified =
        (fun _ -> Error (Error.Unavailable "trillian: transactions unsupported"));
      c_verified_put =
        (fun k v ->
          match
            call ~phase:"commit" ~req_bytes:(String.length k + String.length v + 16)
              ~resp_bytes:(fun _ -> 16)
              (fun () -> ignore (Trillian.put t k v))
          with
          | Some () -> Ok ()
          | None -> Error (Error.Timeout "rpc"));
      c_verified_get_latest = verified_get;
      c_verified_get_historical = verified_get;
      c_flush = (fun ~force:_ -> []);
      c_history = (fun _ ~n:_ -> Ok 0);
      c_failures = (fun () -> !failures) }
  in
  { a_name = "Trillian";
    a_start = (fun () -> running := true; Sim.spawn sequencer);
    a_stop = (fun () -> running := false);
    a_client = mk_client;
    a_storage_bytes = (fun () -> Trillian.storage_bytes t);
    a_commits = (fun () -> Trillian.op_count t);
    a_aborts = (fun () -> 0);
    a_blocks = (fun () -> Trillian.map_revision t + 1);
    a_phase_stats = (fun () -> Trillian.phase_stats t);
    a_reset_stats = (fun () -> Trillian.reset_stats t);
    a_crash = (fun _ -> ());
    a_recover = (fun _ -> ()) }

let trillian = { name = "Trillian"; make = make_trillian }

let all_transactional = [ glassdb; ledgerdb; qldb ]
