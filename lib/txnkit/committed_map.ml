type entry = { value : Kv.value; predicted : int; tid : Kv.txn_id }

type t = { table : (Kv.key, entry Queue.t) Hashtbl.t }

let create () = { table = Hashtbl.create 256 }

let queue_of t k =
  match Hashtbl.find_opt t.table k with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.table k q;
    q

let predict t ~persisted_block k =
  let depth =
    match Hashtbl.find_opt t.table k with
    | None -> 0
    | Some q -> Queue.length q
  in
  persisted_block + depth + 1

let add t ~predicted k value tid =
  Queue.add { value; predicted; tid } (queue_of t k)

let latest t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some q ->
    if Queue.is_empty q then None
    else begin
      let last = Queue.fold (fun _ e -> Some e) None q in
      Option.map (fun e -> (e.value, e.predicted, e.tid)) last
    end

let pending_keys t =
  (* Commutative count: iteration order cannot be observed. *)
  Glassdb_util.Det.unordered_fold
    (fun _ q acc -> if Queue.is_empty q then acc else acc + 1)
    t.table 0

let drain_layer t =
  let out = ref [] in
  let empty_keys = ref [] in
  (* Per-key mutation with the result sorted below: order-insensitive. *)
  Glassdb_util.Det.unordered_iter
    (fun k q ->
      match Queue.take_opt q with
      | Some e ->
        out := (k, e.value, e.tid) :: !out;
        if Queue.is_empty q then empty_keys := k :: !empty_keys
      | None -> empty_keys := k :: !empty_keys)
    t.table;
  List.iter (Hashtbl.remove t.table) !empty_keys;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !out

let pop_key t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some q ->
    let e = Queue.take_opt q in
    if Queue.is_empty q then Hashtbl.remove t.table k;
    Option.map (fun e -> (e.value, e.predicted, e.tid)) e


let max_depth t =
  (* Commutative max: iteration order cannot be observed. *)
  Glassdb_util.Det.unordered_fold
    (fun _ q acc -> max acc (Queue.length q))
    t.table 0

let is_empty t = pending_keys t = 0

let pending_versions t k =
  match Hashtbl.find_opt t.table k with
  | None -> 0
  | Some q -> Queue.length q

let clear t = Hashtbl.reset t.table

let fingerprint t =
  (* Content hash over the sorted bindings, every pending version in queue
     order — two maps fingerprint equal iff they hold the same versions.
     Used by the crash-replay tests to compare rebuilt state to
     pre-crash state. *)
  Glassdb_util.Det.sorted_bindings ~cmp:String.compare t.table
  |> List.concat_map (fun (k, q) ->
         Queue.fold
           (fun acc e ->
             Glassdb_util.Hash.kv k
               (Printf.sprintf "%s|%d|%s" e.value e.predicted e.tid)
             :: acc)
           [] q
         |> List.rev)
  |> Glassdb_util.Hash.combine
