module Kv = Txnkit.Kv

module Rpc = Vlayer.Dist.Make (struct
  include Node

  type commit_result = promise list

  let commit_result_bytes ps = 16 + (48 * List.length ps)
  let cost t = (config_of t).cost
  let commit_lock _ = None
  let read = get
end)

type t = {
  cfg : Config.t;
  rpc : Rpc.t;
  mutable running : bool;
}

let create cfg =
  { cfg;
    rpc =
      Config.dist cfg Rpc.create
        (Array.init cfg.Config.shards (fun i ->
             Node.create (Config.node cfg) ~shard_id:i));
    running = false }

let config_of t = t.cfg
let faults_of t = t.cfg.Config.faults
let rpc t = t.rpc
let shards t = Rpc.shards t.rpc
let node t i = Rpc.node t.rpc i
let nodes t = Rpc.nodes t.rpc
let shard_of_key t k = Rpc.shard_of_key t.rpc k
let call t ?phase ?ctx = Rpc.call t.rpc ?phase ?ctx ?lock:None

(* The persister is the paper's single persisting thread: it occupies one
   worker slot while it updates the ledger, so transaction threads keep
   running, but the longer it holds the slot (long intervals, large drains)
   the more it contends with them (Section 5.3.1). *)
let persister t nd =
  let interval = t.cfg.Config.persist_interval in
  let pool = Node.workers nd in
  let rec loop () =
    if t.running then begin
      Sim.sleep interval;
      if t.running && Node.alive nd then
        Sim.Resource.use pool (fun () ->
            (* One charged step per block, bounded by the backlog present at
               wake-up: ledger IO interleaves with foreground commits, and
               writes arriving mid-drain wait for the next interval. *)
            let budget = ref (Node.pending_blocks nd) in
            let continue_ = ref (!budget > 0) in
            while !continue_ && t.running && Node.alive nd do
              decr budget;
              let started = Sim.now () in
              let stepped =
                (* Parent: the earliest client commit span whose writes
                   are still unpersisted, so a client-originated trace
                   reaches its remote persist child. *)
                Obs.Trace.span ~cat:"node"
                  ~track:(1000 + Node.shard_id nd) ~name:"persist"
                  ?parent:(Node.take_persist_ctx nd)
                  (fun () ->
                    Rpc.charge nd (fun () ->
                        Node.persist_step nd ~now:(Sim.now ())))
              in
              if stepped then begin
                let keys =
                  match
                    Ledger.header_at (Node.ledger_of nd)
                      (Node.block_count nd - 1)
                  with
                  | Some h -> max 1 h.Ledger.n_writes
                  | None -> 1
                in
                Node.note_phase nd "persist"
                  ((Sim.now () -. started) /. float_of_int keys);
                if !budget <= 0 then continue_ := false
              end
              else continue_ := false
            done);
      loop ()
    end
  in
  loop ()

(* Drain every live shard's committed backlog in one go, outside the
   simulator's event loop (bench harnesses, end-of-run flushes); returns
   the number of blocks built. *)
let persist_all t ~now =
  Array.fold_left
    (fun acc nd -> if Node.alive nd then acc + Node.persist nd ~now else acc)
    0 (nodes t)

let crash_node t i =
  Obs.Trace.instant ~cat:"fault" ~attrs:[ ("shard", string_of_int i) ]
    "fault.crash";
  Obs.Metrics.inc
    (Obs.Metrics.counter ~name:"glassdb.fault.crashes"
       ~labels:[ ("shard", string_of_int i) ] ());
  Node.crash (node t i)

let recover_node t i = Node.recover (node t i)

let start t =
  t.running <- true;
  if not t.cfg.Config.sync_persist then
    Array.iter (fun nd -> Sim.spawn (fun () -> persister t nd)) (nodes t);
  (* Arm the fault schedule: crash/restart actions map onto the cluster's
     own handlers, partitions toggle inside the fault layer. *)
  Faults.run t.cfg.Config.faults ~crash:(crash_node t)
    ~restart:(recover_node t)

let stop t = t.running <- false

let total_storage_bytes t =
  Array.fold_left
    (fun acc nd -> acc + Storage.Node_store.total_bytes (Node.store nd))
    0 (nodes t)

let total_blocks t =
  Array.fold_left (fun acc nd -> acc + Node.block_count nd) 0 (nodes t)

let total_commits t =
  Array.fold_left (fun acc nd -> acc + Node.commit_count nd) 0 (nodes t)

let total_aborts t =
  Array.fold_left (fun acc nd -> acc + Node.abort_count nd) 0 (nodes t)

let reset_stats t = Array.iter Node.reset_stats (nodes t)
