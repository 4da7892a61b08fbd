module Kv = Txnkit.Kv
module Error = Glassdb_util.Error

module type NODE = sig
  type t
  type commit_result

  val commit_result_bytes : commit_result -> int
  val alive : t -> bool
  val workers : t -> Sim.Resource.t
  val disk : t -> Sim.Resource.t
  val cost : t -> Cost.t
  val note_phase : t -> string -> float -> unit
  val commit_lock : t -> Sim.Resource.t option
  val prepare : t -> rw:Kv.rw_set -> Kv.signed_txn -> Txnkit.Occ.verdict
  val commit : t -> ?ctx:Obs.Trace.ctx -> Kv.txn_id -> commit_result
  val abort : t -> Kv.txn_id -> unit
  val read : t -> Kv.key -> (Kv.value * Kv.version) option
end

module type S = sig
  type node
  type commit_result
  type t

  val create :
    net:Net.t -> rpc_timeout:float -> rpc_retries:int -> retry_backoff:float ->
    node array -> t

  val shards : t -> int
  val node : t -> int -> node
  val nodes : t -> node array
  val shard_of_key : t -> Kv.key -> int
  val charge : node -> (unit -> 'a) -> 'a

  val call :
    t -> ?phase:string * int -> ?ctx:Obs.Trace.ctx -> ?lock:Sim.Resource.t ->
    shard:int -> req_bytes:int -> resp_bytes:('a -> int) -> (node -> 'a) ->
    ('a, Error.t) result

  module Client : sig
    type c
    type handle

    exception Abort of Error.t

    val create : t -> id:int -> sk:string -> c
    val id : c -> int

    val with_retry :
      c -> ?ctx:Obs.Trace.ctx -> label:string ->
      (unit -> ('a, Error.t) result) -> ('a, Error.t) result

    val execute :
      c -> (handle -> 'a) -> ('a * commit_result list, Error.t) result

    val get : handle -> Kv.key -> Kv.value option
    val put : handle -> Kv.key -> Kv.value -> unit
    val rpc_retry_count : c -> int
    val coordinator_aborts : c -> Kv.txn_id list
  end
end

module Make (N : NODE) = struct
  type node = N.t
  type commit_result = N.commit_result

  type t = {
    nodes : N.t array;
    net : Net.t;
    rpc_timeout : float;
    rpc_retries : int;
    retry_backoff : float;
  }

  let create ~net ~rpc_timeout ~rpc_retries ~retry_backoff nodes =
    if Array.length nodes = 0 then invalid_arg "Dist.create";
    { nodes; net; rpc_timeout; rpc_retries; retry_backoff }

  let shards t = Array.length t.nodes
  let node t i = t.nodes.(i)
  let nodes t = t.nodes
  let shard_of_key t k = Kv.shard_of_key ~shards:(shards t) k

  (* Charge a handler's measured work as service time: CPU inline, IO
     through the node's capacity-1 disk, so storage traffic from
     transactions, background persistence and proofs contends for one
     device. *)
  let charge nd f =
    let v, work = Glassdb_util.Work.measure f in
    let cpu, io = Cost.split_time (N.cost nd) work in
    Sim.sleep cpu;
    if io > 0. then Sim.Resource.use (N.disk nd) (fun () -> Sim.sleep io);
    v

  (* RPCs run inline in the caller's process: transfer, queue for a worker
     (behind [lock] when given), execute with measured work charged as
     service time, transfer back.  Failures surface as typed errors, always
     after the caller has slept out the full [rpc_timeout] — a lost
     request, a lost response and a dead node are indistinguishable on the
     wire. *)
  let call t ?phase ?ctx ?lock ~shard ~req_bytes ~resp_bytes f =
    let nd = t.nodes.(shard) in
    let started = Sim.now () in
    let failed err =
      let elapsed = Sim.now () -. started in
      Sim.sleep (Float.max 0. (t.rpc_timeout -. elapsed));
      Error err
    in
    let span_name = match phase with Some (n, _) -> n | None -> "rpc" in
    (* Fault-injected drops/delays annotate the originating span's trace, so
       a retried RPC's history stays attached to the client span that paid
       for it. *)
    let note leg kind =
      Obs.Trace.instant ~cat:"fault" ~track:(1000 + shard) ?parent:ctx
        ~attrs:[ ("op", span_name); ("leg", leg) ]
        ("net." ^ kind)
    in
    if not (Net.try_send t.net ~note:(note "request") ~link:shard
              ~bytes_len:req_bytes ())
    then failed (Error.Timeout span_name)
    else if not (N.alive nd) then failed (Error.Node_down shard)
    else begin
      (* Server-side latency = queueing for a worker + charged service time;
         recorded per phase for the cost-breakdown figures.  The server span
         is parented on the caller's context, crossing the RPC boundary. *)
      let arrived = Sim.now () in
      let serve () =
        Sim.Resource.use (N.workers nd) (fun () -> charge nd (fun () -> f nd))
      in
      let v =
        Obs.Trace.span ~cat:"node" ~track:(1000 + shard) ?parent:ctx
          ~name:span_name
          (fun () ->
            match lock with
            | Some l -> Sim.Resource.use l serve
            | None -> serve ())
      in
      (match phase with
       | Some (name, keys) when keys > 0 ->
         N.note_phase nd name ((Sim.now () -. arrived) /. float_of_int keys)
       | _ -> ());
      if not (N.alive nd) then failed (Error.Node_down shard)
      else if
        not
          (Net.try_send t.net ~note:(note "response") ~link:shard
             ~bytes_len:(resp_bytes v) ())
      then failed (Error.Timeout span_name)
      else Ok v
    end

  module Client = struct
    type c = {
      cid : int;
      sk : string;
      cl : t;
      mutable seq : int;
      mutable retries : int;
      mutable abort_records : Kv.txn_id list;
      m_retries : Obs.Metrics.counter;
    }

    exception Abort of Error.t

    type handle = {
      client : c;
      tid : Kv.txn_id;
      hctx : Obs.Trace.ctx; (* the enclosing execute span's trace context *)
      mutable reads : (Kv.key * Kv.version) list;
      buffer : (Kv.key, Kv.value) Hashtbl.t;
      mutable write_order : Kv.key list; (* newest first *)
    }

    let create cl ~id ~sk =
      { cid = id;
        sk;
        cl;
        seq = 0;
        retries = 0;
        abort_records = [];
        m_retries = Obs.Metrics.counter ~name:"glassdb.client.rpc_retries" () }

    let id c = c.cid
    let rpc_retry_count c = c.retries
    let coordinator_aborts c = List.rev c.abort_records

    (* Bounded retry with exponential backoff.  Dispatch is on the error
       CONSTRUCTOR — only transient transport errors ({!Error.retryable})
       are retried; conflicts, aborts and invalid proofs surface
       immediately.  [ctx] is the span the RPC belongs to: retry markers
       attach to its trace instead of starting orphaned fresh events. *)
    let with_retry c ?ctx ~label f =
      let rec go attempt =
        match f () with
        | Ok _ as ok -> ok
        | Error e when Error.retryable e && attempt < c.cl.rpc_retries ->
          c.retries <- c.retries + 1;
          Obs.Metrics.inc c.m_retries;
          Obs.Trace.instant ~cat:"client" ~track:c.cid ?parent:ctx
            ~attrs:[ ("op", label); ("attempt", string_of_int (attempt + 1)) ]
            "rpc.retry";
          Sim.sleep (c.cl.retry_backoff *. (2. ** float_of_int attempt));
          go (attempt + 1)
        | Error _ as err -> err
      in
      go 0

    let get h key =
      match Hashtbl.find_opt h.buffer key with
      | Some v -> Some v (* read-your-writes *)
      | None ->
        let c = h.client in
        (match
           with_retry c ~ctx:h.hctx ~label:"read" (fun () ->
               call c.cl ~ctx:h.hctx ~shard:(shard_of_key c.cl key)
                 ~req_bytes:(String.length key + 16)
                 ~resp_bytes:(fun r ->
                   match r with
                   | Some (v, _) -> String.length v + 16
                   | None -> 16)
                 (fun nd -> N.read nd key))
         with
         | Error e -> raise (Abort e)
         | Ok None ->
           h.reads <- (key, -1) :: h.reads;
           None
         | Ok (Some (v, version)) ->
           h.reads <- (key, version) :: h.reads;
           Some v)

    let put h key value =
      if not (Hashtbl.mem h.buffer key) then
        h.write_order <- key :: h.write_order;
      Hashtbl.replace h.buffer key value

    let rw_sets_by_shard h =
      let t = h.client.cl in
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
          let reads, _ = touch (shard_of_key t k) in
          reads := (k, ver) :: !reads)
        h.reads;
      List.iter
        (fun k ->
          let _, writes = touch (shard_of_key t k) in
          writes := (k, Hashtbl.find h.buffer k) :: !writes)
        (List.rev h.write_order);
      Glassdb_util.Det.sorted_bindings ~cmp:Int.compare tbl
      |> List.map (fun (shard, (reads, writes)) ->
             (shard, { Kv.reads = !reads; writes = !writes }))

    (* Fan an RPC out to several shards and join all answers.  Every call
       is time-bounded (each attempt sleeps out at most the RPC timeout,
       retries are finite), so a plain ivar read cannot hang. *)
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

    (* One retried RPC per shard of [per_shard], joined. *)
    let round c ~ctx ~label ?phase ?(lock = fun _ -> None) ~req_bytes
        ~resp_bytes handler per_shard =
      fan_out
        (List.map
           (fun (shard, rw) ->
             ( shard,
               fun () ->
                 with_retry c ~ctx ~label (fun () ->
                     call c.cl ?phase ~ctx ?lock:(lock (node c.cl shard)) ~shard
                       ~req_bytes ~resp_bytes (fun nd -> handler nd rw)) ))
           per_shard)

    (* Release prepare state across [per_shard], retrying through transient
       errors so a partitioned-but-alive shard does not keep the write
       locks once the link heals.  Shards that stay unreachable past the
       retry budget either crashed (locks already wiped) or will reject the
       stale tid later; the coordinator records the abort either way. *)
    let abort_round c ~ctx ~tid per_shard =
      c.abort_records <- tid :: c.abort_records;
      ignore
        (round c ~ctx ~label:"abort" ~req_bytes:32
           ~resp_bytes:(fun _ -> 8)
           (fun nd _ -> N.abort nd tid)
           per_shard)

    let execute c body =
      Obs.Trace.span_ctx ~cat:"client" ~track:c.cid ~name:"execute"
      @@ fun ectx ->
      c.seq <- c.seq + 1;
      let h =
        { client = c;
          tid = Kv.txn_id ~client:c.cid ~seq:c.seq;
          hctx = ectx;
          reads = [];
          buffer = Hashtbl.create 8;
          write_order = [] }
      in
      match body h with
      | exception Abort err ->
        (* Unconditional cleanup: even though reads take no OCC locks, any
           shard this transaction already spoke to must forget the tid. *)
        (match rw_sets_by_shard h with
         | [] -> ()
         | per_shard -> abort_round c ~ctx:ectx ~tid:h.tid per_shard);
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
                List.rev_map
                  (fun k -> (k, Hashtbl.find h.buffer k))
                  h.write_order }
          in
          let stxn = Kv.sign ~sk:c.sk ~tid:h.tid ~client:c.cid full_rw in
          let verdicts =
            Obs.Trace.span_ctx ~cat:"client" ~track:c.cid ~parent:ectx
              ~name:"prepare" (fun ctx ->
                round c ~ctx ~label:"prepare" ~phase:("prepare", 1)
                  ~req_bytes:(Kv.signed_txn_bytes stxn)
                  ~resp_bytes:(fun _ -> 8)
                  (fun nd rw -> N.prepare nd ~rw stxn)
                  per_shard)
          in
          if
            List.for_all
              (function _, Ok Txnkit.Occ.Ok -> true | _ -> false)
              verdicts
          then begin
            let results =
              Obs.Trace.span_ctx ~cat:"client" ~track:c.cid ~parent:ectx
                ~name:"commit" (fun ctx ->
                  round c ~ctx ~label:"commit" ~phase:("commit", 1)
                    ~lock:N.commit_lock
                    ~req_bytes:32 ~resp_bytes:N.commit_result_bytes
                    (fun nd _ -> N.commit nd ~ctx h.tid)
                    per_shard)
            in
            Ok
              ( value,
                List.filter_map
                  (function _, Ok r -> Some r | _, Error _ -> None)
                  results )
          end
          else begin
            (* Abort round: unconditional, with the same retry budget as
               any other RPC, so prepare state cannot leak on shards that
               answered Ok while a sibling conflicted or timed out. *)
            abort_round c ~ctx:ectx ~tid:h.tid per_shard;
            (* A conflict is the most informative verdict; otherwise the
               first transport error explains the abort. *)
            let err =
              List.fold_left
                (fun acc (_, v) ->
                  match (acc, v) with
                  | Some (Error.Txn_conflict _), _ -> acc
                  | _, Ok (Txnkit.Occ.Conflict r) -> Some (Error.Txn_conflict r)
                  | None, Error e -> Some e
                  | acc, _ -> acc)
                None verdicts
            in
            Error (Option.value err ~default:(Error.Txn_conflict "conflict"))
          end
        end
  end
end
