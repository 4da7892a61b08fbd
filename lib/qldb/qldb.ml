open Glassdb_util
module Kv = Txnkit.Kv
module Occ = Txnkit.Occ
module Merkle_log = Mtree.Merkle_log

type config = {
  workers : int;
  cost : Cost.t;
  queue_capacity : int;
}

let default_config = { workers = 8; cost = Cost.default; queue_capacity = 4096 }

module Node = struct
  type t = {
    id : int;
    cfg : config;
    occ : Occ.t;
    log : Merkle_log.t;
    entries : string array ref; (* serialized entries, grows with the log *)
    mutable entry_count : int;
    index : (Kv.value * int) Storage.Bptree.t; (* key -> value, entry seq *)
    key_digests : string array ref; (* per-entry key fingerprint *)
    worker_pool : Sim.Resource.t;
    disk_dev : Sim.Resource.t;
    tree_lock : Sim.Resource.t; (* whole-tree lock held across commit *)
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
      log = Merkle_log.create ();
      entries = ref [||];
      entry_count = 0;
      index = Storage.Bptree.create ();
      key_digests = ref [||];
      worker_pool = Sim.Resource.create cfg.workers;
      disk_dev = Sim.Resource.create 1;
      tree_lock = Sim.Resource.create 1;
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
  let commit_lock t = Some t.tree_lock

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

  let log_size t = t.entry_count
  let storage_bytes t = t.storage

  let push arr_ref count v =
    let arr = !arr_ref in
    if Int.equal count (Array.length arr) then begin
      let na = Array.make (max 64 (2 * count)) "" in
      Array.blit arr 0 na 0 count;
      arr_ref := na
    end;
    !arr_ref.(count) <- v

  (* Fingerprint of the key set an entry wrote: the sorted 8-byte hash
     prefixes of each key, concatenated.  A scanning verifier checks exact
     non-membership of its key at 8 bytes per written key. *)
  let keys_fingerprint keys =
    List.sort String.compare keys
    |> List.map (fun k -> String.sub (Hash.of_string k) 0 8)
    |> String.concat ""

  let current_version t k =
    match Storage.Bptree.find t.index k with
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
      (* Synchronous authenticated-structure update: append the entry,
         persist it, and recompute the Merkle root — all in the critical
         path (this is what makes QLDB*'s commit expensive). *)
      let seq = Merkle_log.append t.log entry in
      push t.entries t.entry_count entry;
      push t.key_digests t.entry_count
        (keys_fingerprint (List.map fst rw.Kv.writes));
      t.entry_count <- t.entry_count + 1;
      Work.note_node_write ~bytes:(String.length entry + 64);
      t.storage <- t.storage + String.length entry + 64;
      ignore (Merkle_log.root t.log);
      (* The refreshed Merkle path (leaf to root) is persisted before the
         commit is acknowledged. *)
      let path_nodes =
        let n = ref 1 and size = Merkle_log.size t.log in
        while 1 lsl !n < size do incr n done;
        !n
      in
      for _ = 1 to path_nodes do
        Work.note_node_write ~bytes:64
      done;
      (* Disk-based communication between the ledger and the indexed
         tables: every indexed key costs a page write. *)
      List.iter
        (fun (k, v) ->
          Storage.Bptree.insert t.index k (v, seq);
          Work.note_node_write ~bytes:(String.length k + String.length v + 32);
          t.storage <- t.storage + String.length k + String.length v + 32)
        rw.Kv.writes

  let abort t tid =
    t.aborts <- t.aborts + 1;
    Occ.abort t.occ ~tid

  let write_locked t k = Occ.is_write_locked t.occ k

  let read t k = Storage.Bptree.find t.index k

  type digest = { size : int; root : Hash.t }

  let digest t = { size = Merkle_log.size t.log; root = Merkle_log.root t.log }

  type current_proof = {
    cp_seq : int;
    cp_entry : string;
    cp_inclusion : Merkle_log.proof;
    cp_scan : string list;
    cp_digest : digest;
  }

  let current_proof_bytes p =
    String.length p.cp_entry
    + Merkle_log.proof_size_bytes p.cp_inclusion
    + List.fold_left (fun a s -> a + String.length s) 0 p.cp_scan
    + 48

  let get_verified_latest t k =
    match Storage.Bptree.find t.index k with
    | None -> None
    | Some (_, seq) ->
      let size = Merkle_log.size t.log in
      (* The O(N) part: scan every entry after [seq] to certify that none
         of them rewrote the key. *)
      let scan = ref [] in
      for i = seq + 1 to size - 1 do
        Work.note_page_read ();
        scan := !(t.key_digests).(i) :: !scan
      done;
      Some
        { cp_seq = seq;
          cp_entry = !(t.entries).(seq);
          cp_inclusion = Merkle_log.inclusion_proof t.log ~index:seq ~size;
          cp_scan = List.rev !scan;
          cp_digest = digest t }

  let verify_current ~digest:d ~key ~value p =
    match Kv.entry_writes p.cp_entry with
    | None -> false
    | Some writes ->
      List.exists
        (fun (k, v) -> String.equal k key && String.equal v value)
        writes
      && Merkle_log.verify_inclusion ~root:d.root ~size:d.size ~index:p.cp_seq
           ~leaf:p.cp_entry p.cp_inclusion
      && Int.equal (List.length p.cp_scan) (d.size - p.cp_seq - 1)
      && (* No later entry's key set may contain the key: check the 8-byte
            hash prefix against every fingerprint group. *)
      (let prefix = String.sub (Hash.of_string key) 0 8 in
       List.for_all
         (fun fp ->
           let groups = String.length fp / 8 in
           let hit = ref false in
           for g = 0 to groups - 1 do
             if String.equal (String.sub fp (8 * g) 8) prefix then hit := true
           done;
           not !hit)
         p.cp_scan)

  let append_only_proof t ~old_size =
    Merkle_log.consistency_proof t.log ~old_size ~new_size:(Merkle_log.size t.log)

  let verify_append_only ~old ~new_ proof =
    Merkle_log.verify_consistency ~old_root:old.root ~old_size:old.size
      ~new_root:new_.root ~new_size:new_.size proof

  let crash t =
    t.is_alive <- false;
    Occ.clear t.occ

  let recover t = t.is_alive <- true
end

module Cluster = Vlayer.Dist.Make (Node)
