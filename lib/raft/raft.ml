open Glassdb_util

type command = string

type role = Follower | Candidate | Leader

type entry = { term : int; cmd : command }

type replica = {
  id : int;
  mutable role : role;
  mutable term : int;
  mutable voted_for : int option;
  mutable log : entry array;  (* 0-based *)
  mutable log_len : int;
  mutable commit_index : int; (* highest committed index; -1 none *)
  mutable last_applied : int;
  mutable alive : bool;
  mutable last_heartbeat : float;
  mutable votes : int;
  (* leader state *)
  mutable next_index : int array;
  mutable match_index : int array;
  rng : Rng.t;
}

type msg =
  | Request_vote of { term : int; candidate : int; last_index : int; last_term : int }
  | Vote_reply of { term : int; granted : bool }
  | Append_entries of {
      term : int;
      leader : int;
      prev_index : int;
      prev_term : int;
      entries : entry list;
      leader_commit : int;
    }
  | Append_reply of { term : int; from : int; success : bool; match_index : int }

type group = {
  replicas : replica array;
  heartbeat : float;
  timeout_lo : float;
  timeout_hi : float;
  rtt : float;
  apply : replica_id:int -> index:int -> command -> unit;
  mutable running : bool;
  commit_waiters : (int * int, bool Sim.Ivar.t) Hashtbl.t;
      (* (replica, index) -> commit notification on that replica *)
}

let create ?(heartbeat = 0.02) ?(election_timeout = (0.15, 0.3)) ?(rtt = 200e-6)
    ~n ~seed ~apply () =
  if n < 1 then invalid_arg "Raft.create";
  let master = Rng.create seed in
  { replicas =
      Array.init n (fun id ->
          { id;
            role = Follower;
            term = 0;
            voted_for = None;
            log = Array.make 16 { term = 0; cmd = "" };
            log_len = 0;
            commit_index = -1;
            last_applied = -1;
            alive = true;
            last_heartbeat = 0.;
            votes = 0;
            next_index = Array.make n 0;
            match_index = Array.make n (-1);
            rng = Rng.split master });
    heartbeat;
    timeout_lo = fst election_timeout;
    timeout_hi = snd election_timeout;
    rtt;
    apply;
    running = false;
    commit_waiters = Hashtbl.create 64 }

let size g = Array.length g.replicas
let is_alive g i = g.replicas.(i).alive

let last_index r = r.log_len - 1
let last_term r = if r.log_len = 0 then 0 else r.log.(r.log_len - 1).term

let append_local r e =
  if Int.equal r.log_len (Array.length r.log) then begin
    let na = Array.make (2 * r.log_len) e in
    Array.blit r.log 0 na 0 r.log_len;
    r.log <- na
  end;
  r.log.(r.log_len) <- e;
  r.log_len <- r.log_len + 1

let random_timeout g r =
  g.timeout_lo +. (Rng.float r.rng *. (g.timeout_hi -. g.timeout_lo))

let apply_committed g r =
  while r.last_applied < r.commit_index do
    r.last_applied <- r.last_applied + 1;
    g.apply ~replica_id:r.id ~index:r.last_applied r.log.(r.last_applied).cmd;
    (match Hashtbl.find_opt g.commit_waiters (r.id, r.last_applied) with
     | Some iv -> ignore (Sim.Ivar.try_fill iv true)
     | None -> ())
  done

let become_follower r term =
  r.role <- Follower;
  r.term <- term;
  r.voted_for <- None

(* Message send with network delay; delivery skipped for dead targets. *)
let rec send g ~to_ msg =
  Sim.spawn (fun () ->
      Sim.sleep (g.rtt /. 2.);
      let r = g.replicas.(to_) in
      if g.running && r.alive then handle g r msg)

and broadcast g ~from msg =
  Array.iter (fun r -> if not (Int.equal r.id from) then send g ~to_:r.id msg) g.replicas

and handle g r msg =
  match msg with
  | Request_vote { term; candidate; last_index = li; last_term = lt } ->
    if term > r.term then become_follower r term;
    let up_to_date =
      lt > last_term r || (Int.equal lt (last_term r) && li >= last_index r)
    in
    let granted =
      Int.equal term r.term
      && up_to_date
      && (match r.voted_for with
          | None -> true
          | Some c -> Int.equal c candidate)
    in
    if granted then begin
      r.voted_for <- Some candidate;
      r.last_heartbeat <- Sim.now ()
    end;
    send g ~to_:candidate (Vote_reply { term = r.term; granted })
  | Vote_reply { term; granted } ->
    if term > r.term then become_follower r term
    else if r.role = Candidate && Int.equal term r.term && granted then begin
      r.votes <- r.votes + 1;
      if r.votes > Array.length g.replicas / 2 then begin
        r.role <- Leader;
        Array.iteri (fun i _ -> r.next_index.(i) <- r.log_len) r.next_index;
        Array.iteri (fun i _ -> r.match_index.(i) <- -1) r.match_index;
        r.match_index.(r.id) <- last_index r;
        replicate g r
      end
    end
  | Append_entries { term; leader; prev_index; prev_term; entries; leader_commit } ->
    if term > r.term || (Int.equal term r.term && r.role <> Follower) then
      become_follower r term;
    if term < r.term then
      send g ~to_:leader
        (Append_reply { term = r.term; from = r.id; success = false; match_index = -1 })
    else begin
      r.last_heartbeat <- Sim.now ();
      let prev_ok =
        prev_index < 0
        || (prev_index < r.log_len && Int.equal r.log.(prev_index).term prev_term)
      in
      if not prev_ok then
        send g ~to_:leader
          (Append_reply { term = r.term; from = r.id; success = false; match_index = -1 })
      else begin
        (* Overwrite any conflicting suffix, then append. *)
        let idx = ref (prev_index + 1) in
        List.iter
          (fun (e : entry) ->
            if !idx < r.log_len && not (Int.equal r.log.(!idx).term e.term) then
              r.log_len <- !idx;
            if !idx >= r.log_len then append_local r e
            else r.log.(!idx) <- e;
            incr idx)
          entries;
        if leader_commit > r.commit_index then begin
          r.commit_index <- min leader_commit (last_index r);
          apply_committed g r
        end;
        send g ~to_:leader
          (Append_reply
             { term = r.term; from = r.id; success = true;
               match_index = prev_index + List.length entries })
      end
    end
  | Append_reply { term; from; success; match_index } ->
    if term > r.term then become_follower r term
    else if r.role = Leader && Int.equal term r.term then begin
      if success then begin
        r.match_index.(from) <- max r.match_index.(from) match_index;
        r.next_index.(from) <- r.match_index.(from) + 1;
        (* Advance the commit index over current-term entries with
           majority replication. *)
        let n = Array.length g.replicas in
        let candidate = ref r.commit_index in
        for idx = r.commit_index + 1 to last_index r do
          if Int.equal r.log.(idx).term r.term then begin
            let count =
              Array.fold_left
                (fun acc m -> if m >= idx then acc + 1 else acc)
                0 r.match_index
            in
            if count > n / 2 then candidate := idx
          end
        done;
        if !candidate > r.commit_index then begin
          r.commit_index <- !candidate;
          apply_committed g r
        end
      end
      else if r.next_index.(from) > 0 then
        r.next_index.(from) <- r.next_index.(from) - 1
    end

and replicate g r =
  (* Send AppendEntries (with any missing suffix) to every peer. *)
  Array.iter
    (fun peer ->
      if not (Int.equal peer.id r.id) then begin
        let ni = r.next_index.(peer.id) in
        let prev_index = ni - 1 in
        let prev_term =
          if prev_index >= 0 && prev_index < r.log_len then
            r.log.(prev_index).term
          else 0
        in
        let entries =
          List.init (r.log_len - ni) (fun k -> r.log.(ni + k))
        in
        send g ~to_:peer.id
          (Append_entries
             { term = r.term; leader = r.id; prev_index; prev_term; entries;
               leader_commit = r.commit_index })
      end)
    g.replicas

let start_election g r =
  r.role <- Candidate;
  r.term <- r.term + 1;
  r.voted_for <- Some r.id;
  r.votes <- 1;
  r.last_heartbeat <- Sim.now ();
  if Array.length g.replicas = 1 then begin
    r.role <- Leader;
    r.match_index.(r.id) <- last_index r
  end
  else
    broadcast g ~from:r.id
      (Request_vote
         { term = r.term; candidate = r.id; last_index = last_index r;
           last_term = last_term r })

let replica_process g r =
  let rec loop deadline =
    if g.running then begin
      Sim.sleep (g.heartbeat /. 2.);
      if g.running && r.alive then begin
        match r.role with
        | Leader ->
          replicate g r;
          Sim.sleep (g.heartbeat /. 2.);
          loop deadline
        | Follower | Candidate ->
          if Sim.now () -. r.last_heartbeat > deadline then begin
            start_election g r;
            loop (random_timeout g r)
          end
          else loop deadline
      end
      else loop deadline
    end
  in
  loop (random_timeout g r)

let start g =
  g.running <- true;
  Array.iter (fun r -> Sim.spawn (fun () -> replica_process g r)) g.replicas

let stop g = g.running <- false

let leader g =
  let best = ref None in
  Array.iter
    (fun r ->
      if r.alive && r.role = Leader then
        match !best with
        | Some (t, _) when t >= r.term -> ()
        | _ -> best := Some (r.term, r.id))
    g.replicas;
  Option.map snd !best

let submit g ?(timeout = 1.0) cmd =
  let deadline = Sim.now () +. timeout in
  (* Poll for a leader within the deadline (elections take a few timeouts),
     then wait for the entry to commit with whatever budget remains. *)
  let rec find_leader () =
    match leader g with
    | Some lid when g.replicas.(lid).alive && g.replicas.(lid).role = Leader ->
      Some lid
    | _ ->
      if Sim.now () +. g.heartbeat > deadline then None
      else begin
        Sim.sleep g.heartbeat;
        find_leader ()
      end
  in
  match find_leader () with
  | None -> false
  | Some lid ->
    let r = g.replicas.(lid) in
    append_local r { term = r.term; cmd };
    let idx = last_index r in
    r.match_index.(r.id) <- idx;
    let iv = Sim.Ivar.create () in
    Hashtbl.replace g.commit_waiters (lid, idx) iv;
    if Array.length g.replicas = 1 then begin
      r.commit_index <- idx;
      apply_committed g r
    end
    else replicate g r;
    let budget = Float.max g.heartbeat (deadline -. Sim.now ()) in
    let result = Sim.Ivar.read_timeout iv budget in
    Hashtbl.remove g.commit_waiters (lid, idx);
    Option.value ~default:false result

let crash g i = g.replicas.(i).alive <- false

let recover g i =
  let r = g.replicas.(i) in
  r.alive <- true;
  r.role <- Follower;
  r.last_heartbeat <- Sim.now ()
