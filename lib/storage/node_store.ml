open Glassdb_util

(* Doubly-linked LRU over the decoded-chunk cache.  The backing table is the
   simulated disk; the LRU models the server's in-memory decoded-node cache,
   so repeated fetches of hot chunks are charged as cheap cache hits rather
   than page reads.

   The cache is partitioned into up to 16 shards by a node's first hash
   byte, each with its own table and LRU and an equal share of the
   capacity.  The partition is part of the cost model, not a concurrency
   device: it decides which node each shard evicts, and so the hit/miss
   sequence, the Work charges it produces and every simulated latency
   derived from them.  A single global LRU would evict differently.
   Small caches (below two LRU slots per potential shard) use one shard,
   i.e. exact global-LRU eviction order, which the accounting tests pin
   down. *)
type lru_node = {
  lkey : Hash.t;
  mutable prev : lru_node option;
  mutable next : lru_node option;
}

type shard = {
  table : (Hash.t, string) Hashtbl.t;
  cache : (Hash.t, lru_node) Hashtbl.t;
  s_capacity : int;
  mutable bytes : int;
  mutable lru_head : lru_node option; (* most recent *)
  mutable lru_tail : lru_node option; (* eviction candidate *)
  mutable hits : int;
  mutable misses : int;
  mutable dup_puts : int;
}

type t = { shards : shard array; capacity : int }

let max_shards = 16

(* At least 32 LRU slots per shard, 1..16 shards; tiny caches stay
   single-sharded so their eviction order matches the legacy global LRU. *)
let shard_count capacity =
  if capacity < 64 then 1 else min max_shards (capacity / 32)

let create ?(cache_capacity = 512) () =
  let capacity = max 0 cache_capacity in
  let n = shard_count capacity in
  let shards =
    Array.init n (fun i ->
        (* Spread the capacity across shards, remainder to the first. *)
        let s_capacity = (capacity / n) + (if i < capacity mod n then 1 else 0) in
        { table = Hashtbl.create (max 64 (1024 / n));
          cache = Hashtbl.create (max 16 s_capacity);
          s_capacity;
          bytes = 0;
          lru_head = None;
          lru_tail = None;
          hits = 0;
          misses = 0;
          dup_puts = 0 })
  in
  { shards; capacity }

let shard_of t (h : Hash.t) =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else if String.length h = 0 then t.shards.(0)
  else t.shards.(Char.code h.[0] mod n)

let unlink s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.lru_head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.lru_tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.next <- s.lru_head;
  n.prev <- None;
  (match s.lru_head with Some h -> h.prev <- Some n | None -> s.lru_tail <- Some n);
  s.lru_head <- Some n

let cache_insert s h =
  if s.s_capacity > 0 && not (Hashtbl.mem s.cache h) then begin
    if Hashtbl.length s.cache >= s.s_capacity then begin
      match s.lru_tail with
      | Some victim ->
        unlink s victim;
        Hashtbl.remove s.cache victim.lkey
      | None -> ()
    end;
    let n = { lkey = h; prev = None; next = None } in
    push_front s n;
    Hashtbl.replace s.cache h n
  end

let cache_touch s n =
  if s.lru_head != Some n then begin
    unlink s n;
    push_front s n
  end

let put t h data =
  let s = shard_of t h in
  if Hashtbl.mem s.table h then
    (* Content-addressed: a re-put of an existing hash is the same bytes.
       Idempotent for the node/byte counters and Work charges; only the
       duplicate-put stat moves. *)
    s.dup_puts <- s.dup_puts + 1
  else begin
    Hashtbl.replace s.table h data;
    s.bytes <- s.bytes + String.length data + Hash.size;
    (* A freshly written node is hot: it joins the decoded cache. *)
    cache_insert s h;
    Work.note_node_write ~bytes:(String.length data + Hash.size)
  end

let get t h =
  let s = shard_of t h in
  match Hashtbl.find_opt s.cache h with
  | Some n ->
    (* Decoded-chunk cache hit: no page fetched. *)
    s.hits <- s.hits + 1;
    cache_touch s n;
    Work.note_cache_hit ();
    Hashtbl.find_opt s.table h
  | None ->
    s.misses <- s.misses + 1;
    (match Hashtbl.find_opt s.table h with
     | Some data ->
       (* Only a fetch that actually returns a node costs a page read; an
          absent key is answered by the (in-memory) index alone. *)
       cache_insert s h;
       Work.note_page_read ();
       Some data
     | None -> None)

let mem t h = Hashtbl.mem (shard_of t h).table h

let sum_shards t f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let node_count t = sum_shards t (fun s -> Hashtbl.length s.table)
let total_bytes t = sum_shards t (fun s -> s.bytes)
let cache_hits t = sum_shards t (fun s -> s.hits)
let cache_misses t = sum_shards t (fun s -> s.misses)
let duplicate_puts t = sum_shards t (fun s -> s.dup_puts)
let cache_capacity t = t.capacity

let cached_nodes t = sum_shards t (fun s -> Hashtbl.length s.cache)
