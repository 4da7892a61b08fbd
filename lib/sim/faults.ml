module Rng = Glassdb_util.Rng

type action =
  | Crash of int
  | Restart of int
  | Partition of int
  | Heal of int

(* Trace retention cap: enough for any smoke/bench run's injected events
   while bounding memory if a schedule drops millions of messages.  The
   numeric counters stay exact past the cap. *)
let trace_cap = 10_000

type t = {
  rng : Rng.t;
  seed : int;
  drop : float;
  delay_prob : float;
  delay_max : float;
  down_links : (int, unit) Hashtbl.t;
  mutable schedule : (float * action) list; (* sorted by time, stable *)
  mutable trace : (float * string) list;    (* newest first *)
  mutable trace_len : int;
  mutable crashes : int;
  mutable drops : int;
  mutable delays : int;
}

let create ?(drop = 0.) ?(delay = (0., 0.)) ~seed () =
  let delay_prob, delay_max = delay in
  if drop < 0. || drop > 1. || delay_prob < 0. || delay_prob > 1.
     || delay_max < 0.
  then invalid_arg "Faults.create";
  { rng = Rng.create seed;
    seed;
    drop;
    delay_prob;
    delay_max;
    down_links = Hashtbl.create 4;
    schedule = [];
    trace = [];
    trace_len = 0;
    crashes = 0;
    drops = 0;
    delays = 0 }

let none () = create ~seed:0 ()

let seed t = t.seed

let note t event =
  if t.trace_len < trace_cap then begin
    let now = if Sim.in_simulation () then Sim.now () else 0. in
    t.trace <- (now, event) :: t.trace;
    t.trace_len <- t.trace_len + 1
  end

let schedule t ~at action =
  if at < 0. then invalid_arg "Faults.schedule";
  (* Insert keeping time order; equal times keep insertion order. *)
  let rec insert = function
    | [] -> [ (at, action) ]
    | (at', _) :: _ as rest when at < at' -> (at, action) :: rest
    | entry :: rest -> entry :: insert rest
  in
  t.schedule <- insert t.schedule

let apply t ~crash ~restart = function
  | Crash i ->
    t.crashes <- t.crashes + 1;
    note t (Printf.sprintf "crash %d" i);
    crash i
  | Restart i ->
    note t (Printf.sprintf "restart %d" i);
    restart i
  | Partition i ->
    note t (Printf.sprintf "partition %d" i);
    Hashtbl.replace t.down_links i ()
  | Heal i ->
    note t (Printf.sprintf "heal %d" i);
    Hashtbl.remove t.down_links i

let run t ~crash ~restart =
  if t.schedule <> [] then
    Sim.spawn (fun () ->
        List.iter
          (fun (at, action) ->
            let dt = at -. Sim.now () in
            if dt > 0. then Sim.sleep dt;
            apply t ~crash ~restart action)
          t.schedule)

let partitioned t ~shard = Hashtbl.mem t.down_links shard

let deliver t ~shard =
  if Hashtbl.mem t.down_links shard then begin
    t.drops <- t.drops + 1;
    note t (Printf.sprintf "drop %d" shard);
    false
  end
  else if t.drop > 0. && Rng.float t.rng < t.drop then begin
    t.drops <- t.drops + 1;
    note t (Printf.sprintf "drop %d" shard);
    false
  end
  else true

let extra_delay t ~shard =
  if t.delay_prob > 0. && Rng.float t.rng < t.delay_prob then begin
    t.delays <- t.delays + 1;
    note t (Printf.sprintf "delay %d" shard);
    Rng.float t.rng *. t.delay_max
  end
  else 0.

let trace t = List.rev t.trace
let crashes t = t.crashes
let drops t = t.drops
let delays t = t.delays

(* The single sanctioned ambient-randomness read in the tree.

   Everything else threads an explicit seed (Glassdb_util.Rng or a
   Random.State) so runs replay byte-for-byte; fresh entropy is only
   meaningful when a human wants an unexplored schedule.  Routing that
   one need through this helper keeps glassdb-lint rule D002 to exactly
   one annotated site — a new Random.* call anywhere else is a lint
   failure, not a silent reproducibility bug.  Callers must report the
   returned seed so the run can be replayed. *)
let random_seed () =
  Random.State.bits ((Random.State.make_self_init [@glassdb.lint.allow "D002"]) ())
