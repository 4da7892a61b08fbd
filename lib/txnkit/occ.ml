type t = {
  prepared : (Kv.txn_id, Kv.rw_set) Hashtbl.t;
  write_locks : (Kv.key, Kv.txn_id) Hashtbl.t;
  read_marks : (Kv.key, int) Hashtbl.t; (* count of prepared readers *)
}

let create () =
  { prepared = Hashtbl.create 64;
    write_locks = Hashtbl.create 64;
    read_marks = Hashtbl.create 64 }

type verdict = Ok | Conflict of string

let mark_read t k =
  Hashtbl.replace t.read_marks k
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.read_marks k))

let unmark_read t k =
  match Hashtbl.find_opt t.read_marks k with
  | Some 1 | None -> Hashtbl.remove t.read_marks k
  | Some n -> Hashtbl.replace t.read_marks k (n - 1)

let prepare t ~tid ~current_version rw =
  if Hashtbl.mem t.prepared tid then Conflict "duplicate prepare"
  else begin
    let stale =
      List.find_opt
        (fun (k, ver) -> not (Int.equal (current_version k) ver))
        rw.Kv.reads
    in
    let read_locked =
      (* Read-write conflict: someone prepared a write to a key we read. *)
      List.find_opt
        (fun (k, _) ->
          match Hashtbl.find_opt t.write_locks k with
          | Some other -> not (String.equal other tid)
          | None -> false)
        rw.Kv.reads
    in
    let write_locked =
      (* Write-write conflict with another prepared transaction. *)
      List.find_opt
        (fun (k, _) ->
          match Hashtbl.find_opt t.write_locks k with
          | Some other -> not (String.equal other tid)
          | None -> false)
        rw.Kv.writes
    in
    let write_read =
      (* Write-read conflict: someone prepared a read of a key we write. *)
      List.find_opt
        (fun (k, _) -> Hashtbl.mem t.read_marks k)
        rw.Kv.writes
    in
    match (stale, read_locked, write_locked, write_read) with
    | Some (k, _), _, _, _ -> Conflict (Printf.sprintf "stale read of %s" k)
    | _, Some (k, _), _, _ -> Conflict (Printf.sprintf "read-write on %s" k)
    | _, _, Some (k, _), _ -> Conflict (Printf.sprintf "write-write on %s" k)
    | _, _, _, Some (k, _) -> Conflict (Printf.sprintf "write-read on %s" k)
    | None, None, None, None ->
      Hashtbl.replace t.prepared tid rw;
      List.iter (fun (k, _) -> Hashtbl.replace t.write_locks k tid) rw.Kv.writes;
      List.iter (fun (k, _) -> mark_read t k) rw.Kv.reads;
      Ok
  end

let release t tid rw =
  Hashtbl.remove t.prepared tid;
  List.iter
    (fun (k, _) ->
      match Hashtbl.find_opt t.write_locks k with
      | Some owner when String.equal owner tid -> Hashtbl.remove t.write_locks k
      | _ -> ())
    rw.Kv.writes;
  List.iter (fun (k, _) -> unmark_read t k) rw.Kv.reads

let commit t ~tid =
  match Hashtbl.find_opt t.prepared tid with
  | None -> None
  | Some rw ->
    release t tid rw;
    Some rw

let abort t ~tid =
  match Hashtbl.find_opt t.prepared tid with
  | None -> ()
  | Some rw -> release t tid rw

let prepared_count t = Hashtbl.length t.prepared
let is_prepared t ~tid = Hashtbl.mem t.prepared tid
let is_write_locked t k = Hashtbl.mem t.write_locks k

let clear t =
  Hashtbl.reset t.prepared;
  Hashtbl.reset t.write_locks;
  Hashtbl.reset t.read_marks
