open Glassdb_util

type config = {
  store : Storage.Node_store.t;
  pattern_bits : int;
}

let config ?(pattern_bits = 5) store =
  if pattern_bits < 1 || pattern_bits > 20 then
    invalid_arg "Pos_tree.config: pattern_bits";
  { store; pattern_bits }

(* A chunk is one tree node: a sorted run of items closed by a
   content-defined boundary.  At level 0 items are (key, value); above,
   items are (first key of child chunk, child chunk hash), and item [i] of
   the flattened level-l item sequence corresponds exactly to chunk [i] of
   level l-1 — navigation is positional. *)

type chunk = { items : Chunker.item array; hash : Hash.t }

type level = {
  chunks : chunk array;
  offsets : int array; (* offsets.(i) = items in chunks.(0..i-1); length n+1 *)
}

type t = {
  cfg : config;
  levels : level array; (* levels.(0) = leaves; top level has one chunk *)
  count : int;
}

(* --- serialization --- *)

(* Chunk serialization reuses one module-level buffer: proofs and rebuilds
   serialize thousands of chunks, and each call fully consumes
   [Buffer.contents] before the next. *)
let ser_buf = Buffer.create 4096

let serialize_chunk ~leaf (items : Chunker.item array) =
  Buffer.clear ser_buf;
  Buffer.add_char ser_buf (if leaf then 'L' else 'I');
  Codec.write_varint ser_buf (Array.length items);
  Array.iter
    (fun it ->
      Codec.write_string ser_buf (Chunker.item_key it);
      Codec.write_string ser_buf (Chunker.item_payload it))
    items;
  Buffer.contents ser_buf

(* The two level-tag digests are constants; hashing them once at module
   initialization keeps them out of every chunk's hash count. *)
let leaf_tag = Hash.leaf "L"
let interior_tag = Hash.leaf "I"

(* Chunk hash: combine of the (memoized) item hashes plus a level tag, so
   rebuilding a chunk only hashes the items that changed.  [combine_feed]
   streams tag and item digests through one reused hashing context — no
   intermediate list, no per-chunk context. *)
let chunk_hash ~leaf (items : Chunker.item array) =
  Hash.combine_feed (fun push ->
      push (if leaf then leaf_tag else interior_tag);
      Array.iter (fun it -> push (Chunker.item_hash it)) items)

let parse_chunk s =
  let r = Codec.reader s in
  let leaf =
    match Char.chr (Codec.read_byte r) with
    | 'L' -> true
    | 'I' -> false
    | _ -> raise (Codec.Malformed "chunk tag")
  in
  let n = Codec.read_varint r in
  (* Every item takes at least two bytes, so a larger count is corrupt. *)
  if n < 0 || n > String.length s then raise (Codec.Malformed "chunk item count");
  let items =
    Array.init n (fun _ ->
        let ikey = Codec.read_string r in
        let payload = Codec.read_string r in
        Chunker.item ~key:ikey ~payload)
  in
  if not (Codec.at_end r) then raise (Codec.Malformed "chunk trailing bytes");
  (leaf, items)

let mk_chunk cfg ~leaf items =
  let hash = chunk_hash ~leaf items in
  (* Identity fast path: a rebuilt chunk whose content hash is already in
     the store is byte-identical to a persisted one — skip the
     re-serialization and the store round-trip entirely. *)
  if not (Storage.Node_store.mem cfg.store hash) then
    Storage.Node_store.put cfg.store hash (serialize_chunk ~leaf items);
  { items; hash }

let first_key c = Chunker.item_key c.items.(0)

let mk_level chunks =
  let n = Array.length chunks in
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length chunks.(i).items
  done;
  { chunks; offsets }

let level_items lv = lv.offsets.(Array.length lv.chunks)

(* --- construction --- *)

let empty cfg = { cfg; levels = [||]; count = 0 }

let is_empty t = Array.length t.levels = 0

let cardinal t = t.count

let height t = Array.length t.levels

let root_hash t =
  let n = Array.length t.levels in
  if n = 0 then Hash.empty
  else t.levels.(n - 1).chunks.(0).hash

(* Build levels above [chunks] until a single chunk remains.  A level may
   transiently fail to shrink when every chunk happens to end at a boundary;
   the next level's fingerprints are fresh hashes, so this converges — the
   depth bound only guards against a (cryptographically impossible)
   adversarial loop. *)
let rec build_up ?(depth = 0) cfg acc chunks =
  if depth > 200 then failwith "Pos_tree: level stack too deep";
  if Array.length chunks <= 1 then List.rev (mk_level chunks :: acc)
  else begin
    let items =
      Array.map (fun c -> Chunker.item ~key:(first_key c) ~payload:c.hash) chunks
    in
    let above =
      Chunker.chunk_seq_array ~pattern_bits:cfg.pattern_bits items
      |> List.map (mk_chunk cfg ~leaf:false)
      |> Array.of_list
    in
    build_up ~depth:(depth + 1) cfg (mk_level chunks :: acc) above
  end

let of_sorted_items cfg (items : Chunker.item array) count =
  if Array.length items = 0 then empty cfg
  else begin
    let leaves =
      Chunker.chunk_seq_array ~pattern_bits:cfg.pattern_bits items
      |> List.map (mk_chunk cfg ~leaf:true)
      |> Array.of_list
    in
    { cfg; levels = Array.of_list (build_up cfg [] leaves); count }
  end

(* --- shared binary searches --- *)

(* Smallest index in [0, n) for which the monotone predicate [ge] holds, or
   [n] when it never does.  Every navigation step below is an instance. *)
let lower_bound n ge =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ge mid then hi := mid else lo := mid + 1
  done;
  !lo

(* Index of the chunk whose item range contains global position [pos]. *)
let chunk_of_pos lv pos =
  let n = Array.length lv.chunks in
  if pos >= level_items lv then n - 1
  else lower_bound n (fun i -> lv.offsets.(i + 1) > pos)

(* Within an index chunk, the child to descend into: the last item with
   ikey <= key, or item 0 when the key precedes everything. *)
let route_index (items : Chunker.item array) key =
  max 0
    (lower_bound (Array.length items)
       (fun i -> String.compare (Chunker.item_key items.(i)) key > 0)
     - 1)

(* Position of the first item with ikey >= key. *)
let leaf_position (items : Chunker.item array) key =
  lower_bound (Array.length items)
    (fun i -> String.compare (Chunker.item_key items.(i)) key >= 0)

(* Exact binary search in a leaf chunk. *)
let find_leaf (items : Chunker.item array) key =
  let i = leaf_position items key in
  if i < Array.length items && String.equal (Chunker.item_key items.(i)) key
  then Some (Chunker.item_payload items.(i))
  else None

(* Chunk whose key span contains [key]: the last chunk whose first key is
   <= key, or chunk 0 when the key precedes everything. *)
let chunk_of_key (chunks : chunk array) key =
  max 0
    (lower_bound (Array.length chunks)
       (fun i -> String.compare (first_key chunks.(i)) key > 0)
     - 1)

let get t key =
  let top = Array.length t.levels - 1 in
  if top < 0 then None
  else begin
    let rec descend l ci =
      Work.note_page_read ();
      let chunk = t.levels.(l).chunks.(ci) in
      if l = 0 then find_leaf chunk.items key
      else begin
        let idx = route_index chunk.items key in
        descend (l - 1) (t.levels.(l).offsets.(ci) + idx)
      end
    in
    descend top 0
  end

let bindings t =
  if is_empty t then []
  else
    Array.to_list t.levels.(0).chunks
    |> List.concat_map (fun c ->
           Array.to_list c.items
           |> List.map (fun it -> (Chunker.item_key it, Chunker.item_payload it)))

let bindings_range t ~lo ~hi =
  if is_empty t || String.compare lo hi >= 0 then []
  else
    bindings t
    |> List.filter (fun (k, _) ->
           String.compare lo k <= 0 && String.compare k hi < 0)

(* --- incremental update --- *)

(* A positional patch replaces item positions [start, stop) with [items]. *)
type patch = { start : int; stop : int; pitems : Chunker.item list }

(* Convert key upserts into leaf-level positional patches; returns the
   patches and the number of fresh insertions. *)
let leaf_patches lv updates =
  let inserted = ref 0 in
  let raw =
    List.map
      (fun (k, v) ->
        let item = Chunker.item ~key:k ~payload:v in
        let ci = chunk_of_key lv.chunks k in
        let items = lv.chunks.(ci).items in
        let base = lv.offsets.(ci) in
        let p = leaf_position items k in
        if p < Array.length items
           && String.equal (Chunker.item_key items.(p)) k
        then { start = base + p; stop = base + p + 1; pitems = [ item ] }
        else begin
          incr inserted;
          { start = base + p; stop = base + p; pitems = [ item ] }
        end)
      updates
  in
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare a.start b.start with
        | 0 -> Int.compare a.stop b.stop
        | c -> c)
      raw
  in
  (* Coalesce insertions sharing a position, keeping key order. *)
  let rec coalesce = function
    | a :: b :: rest
      when Int.equal a.start b.start && Int.equal a.stop a.start
           && Int.equal b.stop b.start ->
      let merged =
        List.sort
          (fun x y ->
            String.compare (Chunker.item_key x) (Chunker.item_key y))
          (a.pitems @ b.pitems)
      in
      coalesce ({ a with pitems = merged } :: rest)
    | a :: rest -> a :: coalesce rest
    | [] -> []
  in
  (coalesce sorted, !inserted)

(* Splice sorted, non-overlapping patches into the flattened items of chunks
   [lo, hi); [base] is the global position of the first item. *)
let splice_region lv ~lo ~hi patches =
  let base = lv.offsets.(lo) in
  let old =
    Array.concat (List.init (hi - lo) (fun k -> lv.chunks.(lo + k).items))
  in
  let removed = List.fold_left (fun a p -> a + (p.stop - p.start)) 0 patches in
  let added = List.fold_left (fun a p -> a + List.length p.pitems) 0 patches in
  let len = Array.length old - removed + added in
  if len = 0 then [||]
  else begin
    let out = Array.make len old.(0) in
    let w = ref 0 and pos = ref 0 in
    let copy_old upto =
      let n = upto - !pos in
      if n > 0 then begin
        Array.blit old !pos out !w n;
        w := !w + n;
        pos := upto
      end
    in
    List.iter
      (fun p ->
        copy_old (p.start - base);
        List.iter
          (fun it ->
            out.(!w) <- it;
            incr w)
          p.pitems;
        pos := p.stop - base)
      patches;
    copy_old (Array.length old);
    out
  end

(* Rebuild one level given positional patches (sorted by start, disjoint);
   returns the new chunk array and the patches to apply one level up, in
   chunk-index coordinates.

   The level is processed as *regions*: a region starts at the first chunk
   touched by a pending patch and absorbs further chunks while (a) a patch
   starts inside or spans past the absorbed range, or (b) re-chunking ends
   without a boundary item, meaning the trailing chunk would swallow its
   old successor. *)
let rebuild_level cfg ~leaf lv patches =
  let n = Array.length lv.chunks in
  let patch_chunk p = chunk_of_pos lv p.start in
  let patch_end_chunk p =
    if p.stop > p.start then chunk_of_pos lv (p.stop - 1) else patch_chunk p
  in
  let out = ref [] and parent_patches = ref [] in
  let emit c = out := c :: !out in
  let pending = ref patches in
  let i = ref 0 in
  while !i < n do
    match !pending with
    | [] ->
      emit lv.chunks.(!i);
      incr i
    | p :: _ when patch_chunk p > !i ->
      emit lv.chunks.(!i);
      incr i
    | _ ->
      let start_ci = !i in
      let j = ref (!i + 1) in
      let region_patches = ref [] in
      (* Pull every pending patch that starts inside the absorbed chunks,
         widening the range to cover multi-chunk replacements. *)
      let pull () =
        let rec go () =
          match !pending with
          | p :: rest when patch_chunk p < !j ->
            region_patches := p :: !region_patches;
            pending := rest;
            if patch_end_chunk p + 1 > !j then j := patch_end_chunk p + 1;
            go ()
          | _ -> ()
        in
        go ()
      in
      pull ();
      let finished = ref false in
      let new_chunks = ref [] in
      while not !finished do
        let items =
          splice_region lv ~lo:start_ci ~hi:!j (List.rev !region_patches)
        in
        let cs = Chunker.chunk_seq_array ~pattern_bits:cfg.pattern_bits items in
        let ends_at_boundary =
          match List.rev cs with
          | [] -> true
          | last :: _ ->
            Chunker.is_boundary ~pattern_bits:cfg.pattern_bits
              last.(Array.length last - 1)
        in
        if ends_at_boundary || !j >= n then begin
          new_chunks := cs;
          finished := true
        end
        else begin
          (* Absorb the next old chunk (and any patches inside it). *)
          incr j;
          pull ()
        end
      done;
      let built = List.map (mk_chunk cfg ~leaf) !new_chunks in
      List.iter emit built;
      parent_patches :=
        { start = start_ci;
          stop = !j;
          pitems =
            List.map
              (fun c -> Chunker.item ~key:(first_key c) ~payload:c.hash)
              built }
        :: !parent_patches;
      i := !j
  done;
  (Array.of_list (List.rev !out), List.rev !parent_patches)

let insert_batch t updates =
  match updates with
  | [] -> t
  | _ ->
    (* Deduplicate keys, last write wins, then sort. *)
    let tbl = Hashtbl.create (List.length updates) in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) updates;
    let updates = Det.sorted_bindings ~cmp:String.compare tbl in
    if is_empty t then
      of_sorted_items t.cfg
        (Array.of_list
           (List.map (fun (k, v) -> Chunker.item ~key:k ~payload:v) updates))
        (List.length updates)
    else begin
      let patches0, inserted = leaf_patches t.levels.(0) updates in
      let nlevels = Array.length t.levels in
      let rec cascade l patches acc =
        if patches = [] then
          (* Nothing changed at this level: retain the remaining levels. *)
          List.rev acc @ Array.to_list (Array.sub t.levels l (nlevels - l))
        else if l < nlevels then begin
          let chunks, up =
            rebuild_level t.cfg ~leaf:(l = 0) t.levels.(l) patches
          in
          let lv = mk_level chunks in
          if Array.length chunks = 1 then List.rev (lv :: acc)
          else cascade (l + 1) up (lv :: acc)
        end
        else begin
          (* The old top split: grow new levels above it until a single
             chunk remains.  Because the old top was one chunk, the patches
             here cover the whole new level's items. *)
          let items =
            Array.of_list (List.concat_map (fun p -> p.pitems) patches)
          in
          let chunks =
            Chunker.chunk_seq_array ~pattern_bits:t.cfg.pattern_bits items
            |> List.map (mk_chunk t.cfg ~leaf:false)
            |> Array.of_list
          in
          List.rev acc @ build_up t.cfg [] chunks
        end
      in
      let levels = cascade 0 patches0 [] in
      { t with levels = Array.of_list levels; count = t.count + inserted }
    end

(* --- loading a snapshot back from the store --- *)

exception Load_failure

(* Reconstruct the snapshot rooted at [root] from the backing store: fetch
   the root chunk, then every child level by the hashes the index items
   carry.  Fetches are charged through the store (page reads / cache hits),
   which is exactly the cost of rebuilding an evicted snapshot. *)
let load cfg root =
  if Hash.equal root Hash.empty then Some (empty cfg)
  else begin
    let fetch h =
      match Storage.Node_store.get cfg.store h with
      | None -> raise Load_failure
      | Some s ->
        (match parse_chunk s with
         | exception Codec.Malformed _ -> raise Load_failure
         | _, [||] -> raise Load_failure
         | leaf, items -> (leaf, { items; hash = h }))
    in
    match
      let root_leaf, root_chunk = fetch root in
      let rec down acc ~leaf chunks =
        let lv = mk_level chunks in
        if leaf then lv :: acc
        else begin
          let child_hashes =
            Array.concat
              (Array.to_list
                 (Array.map
                    (fun c -> Array.map Chunker.item_payload c.items)
                    chunks))
          in
          let fetched = Array.map fetch child_hashes in
          let child_leaf = fst fetched.(0) in
          if not (Array.for_all (fun (l, _) -> Bool.equal l child_leaf) fetched)
          then
            raise Load_failure;
          down (lv :: acc) ~leaf:child_leaf (Array.map snd fetched)
        end
      in
      let levels = Array.of_list (down [] ~leaf:root_leaf [| root_chunk |]) in
      let count =
        Array.fold_left
          (fun acc c -> acc + Array.length c.items)
          0 levels.(0).chunks
      in
      { cfg; levels; count }
    with
    | t -> Some t
    | exception Load_failure -> None
  end

(* --- proofs ---

   Every proof is the list of serialized chunks that one walk from the root
   enters, in the order it enters them: depth first, children left to
   right, each chunk once.  The prover runs the walk over the tree; the
   verifier replays the same walk over the list, consuming one chunk per
   visit and checking it against the hash that led there.  A proof is
   accepted only in exactly that form. *)

type proof = string list

(* The accounting size charges each chunk plus a fixed 4-byte frame — the
   modelled RPC framing, not the varint encoding. *)
let proof_codec : proof Codec.codec =
  Codec.codec
    ~size_bytes:(List.fold_left (fun acc s -> acc + String.length s + 4) 0)
    ~encode:(fun buf p -> Codec.write_list buf Codec.write_string p)
    ~decode:(fun r -> Codec.read_list r Codec.read_string)
    ()

(* Children of an index chunk that may hold keys in [lo, hi): child i covers
   [ikey_i, ikey_{i+1}), except child 0 which also covers anything below its
   first key. *)
let children_in_range (items : Chunker.item array) ~lo ~hi =
  let n = Array.length items in
  let out = ref [] in
  for i = n - 1 downto 0 do
    let covers_lo = i = 0 || String.compare (Chunker.item_key items.(i)) lo <= 0 in
    let first_ge_lo = String.compare (Chunker.item_key items.(i)) lo >= 0 in
    let below_hi = String.compare (Chunker.item_key items.(i)) hi < 0 in
    (* Include the child when its span [first, next-first) intersects the
       range: its first key is below hi, and either its first key is >= lo
       or it is the rightmost child starting at or below lo. *)
    let next_first_above_lo =
      i + 1 >= n || String.compare (Chunker.item_key items.(i + 1)) lo > 0
    in
    if below_hi && (first_ge_lo || (covers_lo && next_first_above_lo)) then
      out := i :: !out
  done;
  !out

(* What a walk looks for.  At an index chunk, [enter] picks the children to
   descend into, in ascending order, each with the part of the query routed
   there; at a leaf chunk, [answer] is what the leaf certifies for its part.
   [void] queries enter nothing. *)
type ('q, 'a) query = {
  void : 'q -> bool;
  enter : Chunker.item array -> 'q -> (int * 'q) list;
  answer : Chunker.item array -> 'q -> 'a list;
}

(* A sorted, deduplicated key set.  [route_index] is monotone, so grouping
   consecutive keys partitions them among the children. *)
let keys_query =
  { void = (fun ks -> ks = []);
    enter =
      (fun items ks ->
        List.fold_left
          (fun acc k ->
            let idx = route_index items k in
            match acc with
            | (i, ks') :: rest when Int.equal i idx -> (i, k :: ks') :: rest
            | _ -> (idx, [ k ]) :: acc)
          [] ks
        |> List.rev_map (fun (i, ks') -> (i, List.rev ks')));
    answer = (fun items ks -> List.map (fun k -> (k, find_leaf items k)) ks) }

(* The half-open key range [lo, hi). *)
let range_query =
  { void = (fun (lo, hi) -> String.compare lo hi >= 0);
    enter =
      (fun items ((lo, hi) as r) ->
        List.map (fun i -> (i, r)) (children_in_range items ~lo ~hi));
    answer =
      (fun items (lo, hi) ->
        Array.fold_right
          (fun it acc ->
            let k = Chunker.item_key it in
            if String.compare lo k <= 0 && String.compare k hi < 0 then
              (k, Chunker.item_payload it) :: acc
            else acc)
          items []) }

(* The one proof walk, from [root] ([None] for the empty tree).  [visit
   node] yields the chunk at [node] as [(leaf, items)]; [child node items i]
   is the node that index item [i] points to.  An empty tree or a void
   query enters nothing, and the answer is that of an empty leaf. *)
let walk ~visit ~child query root q =
  match root with
  | Some node when not (query.void q) ->
    let out = ref [] in
    let rec go node q =
      let leaf, items = visit node in
      if leaf then out := List.rev_append (query.answer items q) !out
      else
        List.iter
          (fun (i, q) -> go (child node items i) q)
          (query.enter items q)
    in
    go node q;
    List.rev !out
  | _ -> query.answer [||] q

(* The walk over the tree: one page read and one serialized chunk per chunk
   entered. *)
let prove_walk query t q =
  let chunks = ref [] in
  let visit (l, ci) =
    Work.note_page_read ();
    let chunk = t.levels.(l).chunks.(ci) in
    chunks := serialize_chunk ~leaf:(l = 0) chunk.items :: !chunks;
    (l = 0, chunk.items)
  in
  let child (l, ci) _ i = (l - 1, t.levels.(l).offsets.(ci) + i) in
  let top = Array.length t.levels - 1 in
  let answer =
    walk ~visit ~child query (if top < 0 then None else Some (top, 0)) q
  in
  (List.rev !chunks, answer)

let prove_batch t keys =
  prove_walk keys_query t (List.sort_uniq String.compare keys)

let prove t key = fst (prove_batch t [ key ])

let prove_range t ~lo ~hi = fst (prove_walk range_query t (lo, hi))

(* --- verified-chunk cache ---

   A verifier's memory of chunks it has already checked: chunk hash to the
   exact bytes that hashed to it.  Bytes, not parsed items, because parsed
   chunks cost an order of magnitude more heap.  Insertion-ordered (FIFO)
   eviction keeps at most [capacity] entries. *)

module Chunk_cache = struct
  let capacity = 128

  type t = {
    table : (Hash.t, string) Hashtbl.t;
    order : Hash.t Queue.t; (* insertion order, oldest first *)
    on_hit : bytes:int -> unit;
    on_miss : bytes:int -> unit;
  }

  let create ?(on_hit = fun ~bytes:_ -> ()) ?(on_miss = fun ~bytes:_ -> ()) ()
      =
    { table = Hashtbl.create capacity; order = Queue.create (); on_hit; on_miss }

  let length c = Hashtbl.length c.table

  (* [s] is known to hash to [h] only when it is byte-for-byte the string
     that did. *)
  let known c h s =
    match Hashtbl.find_opt c.table h with
    | Some cached when String.equal cached s ->
      c.on_hit ~bytes:(String.length s);
      true
    | _ ->
      c.on_miss ~bytes:(String.length s);
      false

  let add c h s =
    if not (Hashtbl.mem c.table h) then begin
      if Hashtbl.length c.table >= capacity then
        Hashtbl.remove c.table (Queue.pop c.order);
      Hashtbl.replace c.table h s;
      Queue.push h c.order
    end
end

exception Reject

(* The same walk replayed over a proof: each visit consumes the next chunk,
   which must parse, be non-empty and hash to the pointer that led to it.
   A chunk whose exact bytes [cache] already saw hash to that pointer is
   parsed but not re-hashed: equal bytes parse to equal items, and those
   hash to the pointer.  A chunk enters [cache] only after its hash check
   passes.  [None] unless the walk consumes the whole proof. *)
let replay ?cache query ~root q proof =
  let rest = ref proof in
  let visit expected =
    match !rest with
    | [] -> raise Reject
    | s :: tl ->
      rest := tl;
      let known =
        match cache with
        | Some c -> Chunk_cache.known c expected s
        | None -> false
      in
      (match parse_chunk s with
       | exception Codec.Malformed _ -> raise Reject
       | _, [||] -> raise Reject
       | leaf, items ->
         if known then (leaf, items)
         else if Hash.equal (chunk_hash ~leaf items) expected then begin
           Option.iter (fun c -> Chunk_cache.add c expected s) cache;
           (leaf, items)
         end
         else raise Reject)
  in
  let child _ items i = Chunker.item_payload items.(i) in
  let root = if Hash.equal root Hash.empty then None else Some root in
  match walk ~visit ~child query root q with
  | answer -> if !rest = [] then Some answer else None
  | exception Reject -> None

let verify_batch ?cache ~root ~items proof =
  match
    replay ?cache keys_query ~root
      (List.sort_uniq String.compare (List.map fst items))
      proof
  with
  | None -> false
  | Some certified ->
    let tbl = Hashtbl.create (List.length certified) in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) certified;
    List.for_all
      (fun (k, v) -> Option.equal String.equal (Hashtbl.find tbl k) v)
      items

let verify ?cache ~root ~key ~value proof =
  verify_batch ?cache ~root ~items:[ (key, value) ] proof

let extract_range ?cache ~root ~lo ~hi proof =
  replay ?cache range_query ~root (lo, hi) proof

let verify_range ?cache ~root ~lo ~hi ~bindings proof =
  match extract_range ?cache ~root ~lo ~hi proof with
  | Some certified ->
    List.equal
      (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
      certified bindings
  | None -> false

let stats_nodes t =
  Array.fold_left (fun acc lv -> acc + Array.length lv.chunks) 0 t.levels

(* --- work attribution ---

   Shadow the public entry points with component scopes so the global Work
   counters can be broken down per subsystem (see Glassdb_util.Work).
   Internal callers above this point use the unscoped definitions: under
   exclusive attribution their work is charged to whichever scope is
   already open, which is exactly the outer entry point's component. *)

let get t key = Work.with_component "postree" (fun () -> get t key)

let insert_batch t updates =
  Work.with_component "postree" (fun () -> insert_batch t updates)

let load cfg root = Work.with_component "postree" (fun () -> load cfg root)

(* Proof-serving walks get their own component so server-side tree
   maintenance ("postree") and proof generation ("proof") separate in the
   attribution table. *)

let prove t key = Work.with_component "proof" (fun () -> prove t key)

let prove_batch t keys =
  Work.with_component "proof" (fun () -> prove_batch t keys)

let prove_range t ~lo ~hi =
  Work.with_component "proof" (fun () -> prove_range t ~lo ~hi)

let verify ?cache ~root ~key ~value proof =
  Work.with_component "verify" (fun () ->
      verify ?cache ~root ~key ~value proof)

let verify_batch ?cache ~root ~items proof =
  Work.with_component "verify" (fun () ->
      verify_batch ?cache ~root ~items proof)

let extract_range ?cache ~root ~lo ~hi proof =
  Work.with_component "verify" (fun () ->
      extract_range ?cache ~root ~lo ~hi proof)

let verify_range ?cache ~root ~lo ~hi ~bindings proof =
  Work.with_component "verify" (fun () ->
      verify_range ?cache ~root ~lo ~hi ~bindings proof)
