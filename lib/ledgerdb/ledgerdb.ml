open Glassdb_util
module Kv = Txnkit.Kv
module Occ = Txnkit.Occ
module Merkle_log = Mtree.Merkle_log
module Mpt = Mtree.Mpt

type config = {
  workers : int;
  cost : Cost.t;
  queue_capacity : int;
  batch_interval : float;
}

let default_config =
  { workers = 8; cost = Cost.default; queue_capacity = 4096;
    batch_interval = 0.05 }

module Node = struct
  type clue = {
    index : int Storage.Skiplist.t; (* clue seq -> journal seq *)
    mutable count : int;
  }

  type t = {
    id : int;
    cfg : config;
    occ : Occ.t;
    (* Journal of committed transactions (the WAL-like primary record). *)
    journal : string array ref;
    mutable journal_count : int;
    (* Latest materialized value per key, for reads and OCC. *)
    latest : (Kv.key, Kv.value * int) Hashtbl.t;
    clues : (Kv.key, clue) Hashtbl.t;
    bamt : Merkle_log.t;
    mutable bamt_covered : int;  (* journal entries folded into the bAMT *)
    mutable ccmpt : Mpt.t;
    mutable dirty_clues : Kv.key list; (* clue counts to refresh in ccMPT *)
    mutable chain : (Hash.t * Hash.t * Hash.t) list; (* newest block first *)
    mutable blocks : int;
    worker_pool : Sim.Resource.t;
    disk_dev : Sim.Resource.t;
    mutable is_alive : bool;
    mutable storage : int;
    stats : (string, Stats.t) Hashtbl.t;
    mutable commits : int;
    mutable aborts : int;
  }

  let create cfg ~shard_id =
    { id = shard_id;
      cfg;
      occ = Occ.create ();
      journal = ref [||];
      journal_count = 0;
      latest = Hashtbl.create 1024;
      clues = Hashtbl.create 1024;
      bamt = Merkle_log.create ();
      bamt_covered = 0;
      ccmpt = Mpt.empty_with_store (Storage.Node_store.create ());
      dirty_clues = [];
      chain = [];
      blocks = 0;
      worker_pool = Sim.Resource.create cfg.workers;
      disk_dev = Sim.Resource.create 1;
      is_alive = true;
      storage = 0;
      stats = Hashtbl.create 8;
      commits = 0;
      aborts = 0 }

  let shard_id t = t.id
  let alive t = t.is_alive
  let workers t = t.worker_pool
  let cost t = t.cfg.cost
  let disk t = t.disk_dev
  let commit_lock _ = None
  let config_of t = t.cfg

  let note_phase t phase v =
    let s =
      match Hashtbl.find_opt t.stats phase with
      | Some s -> s
      | None ->
        let s = Stats.create () in
        Hashtbl.replace t.stats phase s;
        s
    in
    Stats.add s v

  let phase_stats t = Det.sorted_bindings ~cmp:String.compare t.stats
  let commit_count t = t.commits
  let abort_count t = t.aborts

  let reset_stats t =
    Hashtbl.reset t.stats;
    t.commits <- 0;
    t.aborts <- 0

  let journal_size t = t.journal_count
  let storage_bytes t = t.storage
  let block_count t = t.blocks

  let push arr_ref count v =
    let arr = !arr_ref in
    if Int.equal count (Array.length arr) then begin
      let na = Array.make (max 64 (2 * count)) "" in
      Array.blit arr 0 na 0 count;
      arr_ref := na
    end;
    !arr_ref.(count) <- v

  let clue_of t k =
    match Hashtbl.find_opt t.clues k with
    | Some c -> c
    | None ->
      let c = { index = Storage.Skiplist.create (); count = 0 } in
      Hashtbl.replace t.clues k c;
      c

  let current_version t k =
    match Hashtbl.find_opt t.latest k with
    | Some (_, seq) -> seq
    | None -> -1

  let prepare t ~rw stxn =
    if Occ.prepared_count t.occ >= t.cfg.queue_capacity then
      Txnkit.Occ.Conflict "queue full"
    else
      Occ.prepare t.occ ~tid:stxn.Kv.tid ~current_version:(current_version t)
        rw

  type commit_result = unit

  let commit_result_bytes () = 16

  let commit t ?ctx:_ tid =
    match Occ.commit t.occ ~tid with
    | None -> ()
    | Some rw ->
      t.commits <- t.commits + 1;
      let entry = Kv.encode_entry tid rw.Kv.writes in
      let seq = t.journal_count in
      push t.journal t.journal_count entry;
      t.journal_count <- t.journal_count + 1;
      (* The journal write is durable (WAL semantics); the authenticated
         structures are updated later, in batch. *)
      Work.note_node_write ~bytes:(String.length entry + 48);
      t.storage <- t.storage + String.length entry + 48;
      List.iter
        (fun (k, v) ->
          Hashtbl.replace t.latest k (v, seq);
          let c = clue_of t k in
          c.count <- c.count + 1;
          Storage.Skiplist.append c.index ~seq:c.count seq;
          (* The clue index is a persistent on-disk structure: each new
             entry is written. *)
          Work.note_node_write ~bytes:(String.length k + 24);
          t.storage <- t.storage + String.length k + 24;
          t.dirty_clues <- k :: t.dirty_clues)
        rw.Kv.writes

  let abort t tid =
    t.aborts <- t.aborts + 1;
    Occ.abort t.occ ~tid

  let write_locked t k = Occ.is_write_locked t.occ k

  let read t k = Hashtbl.find_opt t.latest k

  let flush_batch t =
    if not t.is_alive then 0
    else begin
      let folded = ref 0 in
      (* Fold the journal tail into the bAMT in one batch. *)
      while t.bamt_covered < t.journal_count do
        ignore (Merkle_log.append t.bamt !(t.journal).(t.bamt_covered));
        (* Immutable bAMT: a new leaf plus (amortized) one interior node
           per append. *)
        Work.note_node_write ~bytes:64;
        Work.note_node_write ~bytes:64;
        t.storage <- t.storage + 128;
        t.bamt_covered <- t.bamt_covered + 1;
        incr folded
      done;
      if !folded > 0 then begin
        (* Refresh the dirty clue counts in the ccMPT. *)
        let dirty = List.sort_uniq String.compare t.dirty_clues in
        t.dirty_clues <- [];
        t.ccmpt <-
          Mpt.set_batch t.ccmpt
            (List.map
               (fun k -> (k, string_of_int (clue_of t k).count))
               dirty);
        (* New chain block over the two roots. *)
        let broot = Merkle_log.root t.bamt and croot = Mpt.root_hash t.ccmpt in
        let prev =
          match t.chain with (h, _, _) :: _ -> h | [] -> Hash.empty
        in
        let head = Hash.combine [ prev; broot; croot ] in
        t.chain <- (head, broot, croot) :: t.chain;
        t.blocks <- t.blocks + 1;
        Work.note_node_write ~bytes:(3 * Hash.size);
        t.storage <- t.storage + (3 * Hash.size)
      end;
      !folded
    end

  type digest = { d_block : int; d_bamt : Hash.t; d_size : int; d_ccmpt : Hash.t }

  let digest t =
    { d_block = t.blocks - 1;
      d_bamt = Merkle_log.root_at t.bamt t.bamt_covered;
      d_size = t.bamt_covered;
      d_ccmpt = Mpt.root_hash t.ccmpt }

  type current_proof = {
    lp_seq : int;
    lp_entry : string;
    lp_count : int;
    lp_ccmpt : Mpt.proof;
    lp_clues : (int * string * Merkle_log.proof) list;
    lp_digest : digest;
  }

  let current_proof_bytes p =
    String.length p.lp_entry
    + Mpt.proof_size_bytes p.lp_ccmpt
    + List.fold_left
        (fun a (_, e, pr) ->
          a + String.length e + Merkle_log.proof_size_bytes pr + 8)
        0 p.lp_clues
    + 64

  let get_verified_latest t k =
    match Hashtbl.find_opt t.latest k with
    | None -> None
    | Some (_, seq) when seq >= t.bamt_covered -> None
    | Some (_, _) ->
      let c = clue_of t k in
      let size = t.bamt_covered in
      (* The client cannot trust the skip-list pointers, so the server
         ships a bAMT inclusion proof for every clue entry. *)
      let clue_entries =
        Storage.Skiplist.to_list c.index
        |> List.filter (fun (_, jseq) -> jseq < size)
      in
      let lp_clues =
        List.map
          (fun (_, jseq) ->
            ( jseq,
              !(t.journal).(jseq),
              Merkle_log.inclusion_proof t.bamt ~index:jseq ~size ))
          clue_entries
      in
      Some
        { lp_seq =
            (match List.rev clue_entries with
             | (_, jseq) :: _ -> jseq
             | [] -> -1);
          lp_entry =
            (match List.rev clue_entries with
             | (_, jseq) :: _ -> !(t.journal).(jseq)
             | [] -> "");
          lp_count = List.length clue_entries;
          lp_ccmpt = Mpt.prove t.ccmpt k;
          lp_clues;
          lp_digest = digest t }

  let verify_current ~digest:d ~key ~value p =
    (* 1. ccMPT certifies the clue count. *)
    Mpt.verify ~root:d.d_ccmpt ~key ~value:(Some (string_of_int p.lp_count))
      p.lp_ccmpt
    && Int.equal (List.length p.lp_clues) p.lp_count
    && p.lp_count > 0
    (* 2. Every clue entry is in the bAMT and mentions the key; the last
          one binds the claimed current value. *)
    && List.for_all
         (fun (jseq, entry, proof) ->
           Merkle_log.verify_inclusion ~root:d.d_bamt ~size:d.d_size
             ~index:jseq ~leaf:entry proof
           &&
           match Kv.entry_writes entry with
           | None -> false
           | Some writes -> List.mem_assoc key writes)
         p.lp_clues
    &&
    (match List.rev p.lp_clues with
     | (_, entry, _) :: _ ->
       (match Option.bind (Kv.entry_writes entry) (List.assoc_opt key) with
        | Some v -> String.equal v value
        | None -> false)
     | [] -> false)

  let append_only_proof t ~old_size =
    Merkle_log.consistency_proof t.bamt ~old_size ~new_size:t.bamt_covered

  let verify_append_only ~old ~new_ proof =
    Merkle_log.verify_consistency ~old_root:old.d_bamt ~old_size:old.d_size
      ~new_root:new_.d_bamt ~new_size:new_.d_size proof

  let crash t =
    t.is_alive <- false;
    Occ.clear t.occ

  let recover t = t.is_alive <- true
end

module Cluster = Vlayer.Dist.Make (Node)
