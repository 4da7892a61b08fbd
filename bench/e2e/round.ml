(* One end-to-end round: build a fresh deployment, run set-up, then the
   timed closed loop of simulated clients over the pre-generated op
   arrays, then the closing correctness gate.

   Everything runs in one OS thread: clients, persisters and auditors are
   Sim coroutines, and every RPC goes through [Cluster.call].  Wall time
   is read at the set-up and timed-window boundaries and once per persist
   interval of virtual time; virtual time gives the paper-style
   throughput and latency. *)

open Glassdb_util
open Glassdb
module W = Workload

exception Incorrect of string

exception Setup_done of float

let incorrect fmt = Printf.ksprintf (fun s -> raise (Incorrect s)) fmt

type result = {
  setup_s : float;
  wall_s : float;  (** timed window, wall seconds *)
  sim_s : float;  (** timed window, virtual seconds *)
  attempted : int;  (** client ops, txns and audit rounds issued *)
  failed : int;  (** of those, the ones that ended in an error *)
  ops : int;
      (** completed throughput ops: client ops, committed txns, or (with
          auditors) writes re-executed by an auditor *)
  latencies : float array;
      (** virtual seconds per completed op; for a re-executed write, its
          audit lag (block creation until an auditor verified it) *)
  audit_rounds : int;  (** auditor catch-up rounds in the timed window *)
  txn_attempts : int;
  txn_aborts : int;
  proof_bytes : int;
  verified_keys : int;
  flushes : int;  (** per-shard deferred-verification replies *)
  flushed_keys : int;
  storage_bytes : int;
  user_bytes : int;  (** key + value bytes of every committed write *)
  window_writes : int;  (** writes committed during the timed window *)
  blocks : int;
  ledger_writes : int;
  store_nodes : int;
  cache_hits : int;
  cache_misses : int;
  wal_bytes : int;
  commits : int;  (** per-shard commits *)
  phases : (string * float) list;  (** exact mean virtual s per phase *)
  minor_words : float;  (** allocated during the timed window *)
  major_collections : int;
  marks : (float * int) array;
      (** (wall seconds, ops completed) at every persist interval of
          virtual time across the timed window, first and last included *)
}

let sk id = Printf.sprintf "sk-%d" id

(* Keys per set-up load transaction. *)
let load_batch = 50

let user_bytes_of writes =
  List.fold_left (fun a (k, v) -> a + String.length k + String.length v) 0 writes

let iter_headers ledger ~from ~upto f =
  for b = from to upto do
    Option.iter f (Ledger.header_at ledger b)
  done

(* An auditor's view of [shard] moved past blocks [b0+1 .. b1]: each
   write in them was re-executed, with an audit lag of [now] minus its
   block's creation time. *)
let note_audited cl ~shard b0 b1 ~now ~ops ~lat =
  iter_headers (Node.ledger_of (Cluster.node cl shard)) ~from:(b0 + 1) ~upto:b1
    (fun h ->
      ops := !ops + h.Ledger.n_writes;
      for _ = 1 to h.Ledger.n_writes do
        lat := (now -. h.Ledger.time) :: !lat
      done)

let merged_phase_means cl =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      List.iter
        (fun (name, s) ->
          let tot, cnt =
            Option.value ~default:(0., 0) (Hashtbl.find_opt tbl name)
          in
          Hashtbl.replace tbl name (tot +. Stats.total s, cnt + Stats.count s))
        (Node.phase_stats nd))
    (Cluster.nodes cl);
  Det.sorted_bindings ~cmp:String.compare tbl
  |> List.map (fun (name, (tot, cnt)) ->
         (name, if cnt = 0 then 0. else tot /. float_of_int cnt))

let run ?(setup_only = false) (inp : W.inputs) =
  let spec = inp.W.spec in
  let interval = Config.default.Config.persist_interval in
  Obs.Metrics.reset ();
  let wall_created = Benchkit.Wallclock.now_s () in
  let cl = Cluster.create (Config.make ~shards:W.shards ()) in
  let out = ref None in
  Sim.run (fun () ->
      Cluster.start cl;
      let user_bytes = ref 0 in
      let loader = Client.create cl ~id:0 ~sk:(sk 0) in
      let setup_write writes =
        match
          Client.execute loader (fun h ->
              List.iter (fun (k, v) -> Client.put h k v) writes)
        with
        | Ok ((), _) -> user_bytes := !user_bytes + user_bytes_of writes
        | Error e -> incorrect "set-up write failed: %s" (Error.to_string e)
      in
      (* --- set-up: load, pre-build history, let the persisters drain --- *)
      let n = Array.length inp.W.load in
      let batch = load_batch in
      for i = 0 to (n - 1) / batch do
        setup_write
          (Array.to_list
             (Array.sub inp.W.load (i * batch) (min batch (n - (i * batch)))))
      done;
      Array.iter
        (fun writes ->
          setup_write writes;
          Sim.sleep interval)
        inp.W.history;
      while
        Array.exists (fun nd -> Node.pending_blocks nd > 0) (Cluster.nodes cl)
      do
        Sim.sleep interval
      done;
      let clients =
        Array.init spec.W.clients (fun i -> Client.create cl ~id:(i + 1) ~sk:(sk (i + 1)))
      in
      let auditors = Array.init spec.W.auditors (fun i -> Auditor.create cl ~id:i) in
      let register a =
        Auditor.register_client a ~client:0 ~pk:(Client.public_key loader);
        Array.iter
          (fun c -> Auditor.register_client a ~client:(Client.id c) ~pk:(Client.public_key c))
          clients
      in
      let check_audit (r : Auditor.audit_report) =
        if not r.Auditor.ar_ok then incorrect "audit of shard %d failed" r.Auditor.ar_shard
      in
      Array.iter
        (fun a ->
          register a;
          List.iter check_audit (Auditor.audit_all a))
        auditors;
      let setup_s = Benchkit.Wallclock.now_s () -. wall_created in
      if setup_only then raise (Setup_done setup_s);
      (* --- timed window --- *)
      let generations = !W.generations in
      let attempted = ref 0 and failed = ref 0 and ops = ref 0 in
      let lat = ref [] in
      let txn_attempts = ref 0 and txn_aborts = ref 0 in
      let audit_rounds = ref 0 in
      let proof_bytes = ref 0 and verified_keys = ref 0 in
      let flushes = ref 0 and flushed_keys = ref 0 in
      let window_writes = ref 0 in
      let note_verification ~flush (v : Client.verification) =
        if not v.Client.v_ok then incorrect "a proof check failed";
        proof_bytes := !proof_bytes + v.Client.v_proof_bytes;
        verified_keys := !verified_keys + v.Client.v_keys;
        if flush then begin
          incr flushes;
          flushed_keys := !flushed_keys + v.Client.v_keys
        end
      in
      (* A write aborted by an OCC conflict is retried with the same
         inputs, as a closed-loop client would; only a write that never
         commits counts as failed. *)
      let rec committed ?(n = 1) f =
        incr txn_attempts;
        match f () with
        | Ok _ as ok -> ok
        | Error (Error.Txn_conflict _) when n < 10 ->
          incr txn_aborts;
          committed ~n:(n + 1) f
        | Error _ as err -> err
      in
      let last_writes = Array.make spec.W.clients [] in
      let note_writes c writes =
        last_writes.(Client.id c - 1) <- writes;
        user_bytes := !user_bytes + user_bytes_of writes;
        window_writes := !window_writes + List.length writes
      in
      let run_op c op =
        match op with
        | W.Put (k, v) ->
          (match committed (fun () -> Client.verified_put c k v) with
           | Ok _ -> note_writes c [ (k, v) ]; true
           | Error _ -> false)
        | W.Get k ->
          (match Client.verified_get_latest c k with
           | Ok (_, v) -> note_verification ~flush:false v; true
           | Error _ -> false)
        | W.Get_at (k, behind) ->
          let d = Client.digest_of_shard c (Cluster.shard_of_key cl k) in
          let block = max 0 (d.Ledger.block_no - behind) in
          (match Client.verified_get_at c k ~block with
           | Ok (_, v) -> note_verification ~flush:false v; true
           | Error _ -> false)
        | W.Txn (writes, reads) ->
          (match
             committed (fun () ->
                 Client.execute c (fun h ->
                     List.iter (fun (k, v) -> Client.put h k v) writes;
                     List.iter (fun k -> ignore (Client.get h k)) reads))
           with
           | Ok ((), promises) ->
             (* Queued so the closing gate proves every acknowledged write. *)
             Client.queue_promises c promises;
             note_writes c writes;
             true
           | Error _ -> false)
      in
      let verified =
        match spec.W.kind with
        | W.Verified_hot | W.Verified_history -> true
        | W.Txn_write | W.Audit_tail -> false
      in
      let finished = ref false in
      let gc0 = Gc.quick_stat () in
      let sim0 = Sim.now () in
      let wall0 = Benchkit.Wallclock.now_s () in
      let done_ =
        Array.mapi
          (fun i c ->
            let iv = Sim.Ivar.create () in
            Sim.spawn (fun () ->
                Array.iter
                  (fun op ->
                    incr attempted;
                    let t0 = Sim.now () in
                    if run_op c op then begin
                      if spec.W.auditors = 0 then begin
                        incr ops;
                        lat := (Sim.now () -. t0) :: !lat
                      end
                    end
                    else incr failed;
                    if verified then
                      List.iter (note_verification ~flush:true)
                        (Client.flush_verifications c ()))
                  inp.W.ops.(i);
                Sim.Ivar.fill iv ());
            iv)
          clients
      in
      Array.iter
        (fun a ->
          Sim.spawn (fun () ->
              while not !finished do
                for shard = 0 to W.shards - 1 do
                  if not !finished then begin
                    let b0 = (Auditor.digest_of_shard a shard).Ledger.block_no in
                    let r = Auditor.audit_shard a ~shard in
                    let b1 = (Auditor.digest_of_shard a shard).Ledger.block_no in
                    check_audit r;
                    if not !finished then begin
                      incr attempted;
                      incr audit_rounds;
                      note_audited cl ~shard b0 b1 ~now:(Sim.now ()) ~ops ~lat
                    end
                  end
                done;
                Sim.sleep interval
              done))
        auditors;
      (* Wall-clock marks at a fixed virtual cadence, so throughput can
         be read per segment of the window (see [Bench]). *)
      let marks = ref [ (wall0, 0) ] in
      Sim.spawn (fun () ->
          while not !finished do
            Sim.sleep interval;
            if not !finished then
              marks := (Benchkit.Wallclock.now_s (), !ops) :: !marks
          done);
      Array.iter Sim.Ivar.read done_;
      let wall_s = Benchkit.Wallclock.now_s () -. wall0 in
      let sim_s = Sim.now () -. sim0 in
      let gc1 = Gc.quick_stat () in
      marks := (wall0 +. wall_s, !ops) :: !marks;
      finished := true;
      if !W.generations <> generations then
        incorrect "input generation ran inside the timed window";
      (* --- closing gate --- *)
      Cluster.stop cl;
      ignore (Cluster.persist_all cl ~now:(Sim.now ()));
      Array.iter
        (fun c ->
          List.iter (note_verification ~flush:true)
            (Client.flush_verifications c ~force:true ());
          if Client.pending_verifications c > 0 then
            incorrect "client %d: an acknowledged write is still unverified"
              (Client.id c);
          (* Read the client's last writes back: acknowledged writes
             must be readable after the drain. *)
          let keys = List.map fst last_writes.(Client.id c - 1) in
          match
            Client.execute c (fun h -> List.for_all (fun k -> Client.get h k <> None) keys)
          with
          | Ok (true, _) -> ()
          | Ok (false, _) -> incorrect "client %d: a committed write is not readable" (Client.id c)
          | Error e -> incorrect "client %d: read-back failed: %s" (Client.id c) (Error.to_string e))
        clients;
      let final_auditors =
        if spec.W.auditors > 0 then auditors
        else begin
          let a = Auditor.create cl ~id:spec.W.auditors in
          register a;
          [| a |]
        end
      in
      Array.iter
        (fun a ->
          List.iter check_audit (Auditor.audit_all a);
          if Auditor.failures a > 0 then incorrect "auditor %d reported violations" (Auditor.id a))
        final_auditors;
      Array.iter
        (fun c ->
          if Client.verification_failures c > 0 then
            incorrect "client %d: %d proof checks failed" (Client.id c)
              (Client.verification_failures c))
        clients;
      let nodes = Cluster.nodes cl in
      let sum f = Array.fold_left (fun a nd -> a + f nd) 0 nodes in
      let ledger_writes =
        sum (fun nd ->
            let l = Node.ledger_of nd in
            let n = ref 0 in
            iter_headers l ~from:0 ~upto:(Ledger.latest_block l) (fun h ->
                n := !n + h.Ledger.n_writes);
            !n)
      in
      out :=
        Some
          { setup_s;
            wall_s;
            sim_s;
            attempted = !attempted;
            failed = !failed;
            ops = !ops;
            latencies = Array.of_list (List.rev !lat);
            audit_rounds = !audit_rounds;
            txn_attempts = !txn_attempts;
            txn_aborts = !txn_aborts;
            proof_bytes = !proof_bytes;
            verified_keys = !verified_keys;
            flushes = !flushes;
            flushed_keys = !flushed_keys;
            storage_bytes = Cluster.total_storage_bytes cl;
            user_bytes = !user_bytes;
            window_writes = !window_writes;
            blocks = Cluster.total_blocks cl;
            ledger_writes;
            store_nodes = sum (fun nd -> Storage.Node_store.node_count (Node.store nd));
            cache_hits = sum (fun nd -> Storage.Node_store.cache_hits (Node.store nd));
            cache_misses = sum (fun nd -> Storage.Node_store.cache_misses (Node.store nd));
            wal_bytes = sum Node.wal_size_bytes;
            commits = Cluster.total_commits cl;
            phases = merged_phase_means cl;
            minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
            major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
            marks = Array.of_list (List.rev !marks) };
      Sim.stop ());
  match !out with
  | Some r -> r
  | None -> incorrect "simulation ended without a result"

(* Wall seconds of one set-up alone: cluster creation until the
   persisters have drained the load (and auditors have caught up). *)
let setup_time inp =
  match run ~setup_only:true inp with
  | _ -> incorrect "a set-up-only round ran its timed window"
  | exception Setup_done s -> s
