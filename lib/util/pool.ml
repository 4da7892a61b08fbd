(* Deterministic fixed-size fork-join domain pool: see the .mli for the
   determinism contract.  Tasks are claimed from a shared atomic counter in
   whatever temporal order the domains reach it; results land at their
   submission index and Work capture/absorb merges per-task counters back
   in submission order, so output is byte-identical to the serial path. *)

[@@@glassdb.lint.allow "D004"]
(* This module is the sanctioned home of Domain.spawn / Mutex.create /
   Condition.create (lint rule D004 confines ambient parallelism
   primitives to lib/util/pool); the floating allow covers the file. *)

type job = {
  run_task : int -> unit;  (* runs task [i]; stores its own result/exn *)
  n : int;
  claim : int;             (* tasks claimed per atomic op (>= 1) *)
  next : int Atomic.t;     (* next unclaimed task index *)
  completed : int Atomic.t;
}

(* --- profiling hooks (installed by Obs.Prof) ---

   The pool carries no policy of its own: when a profiler is installed it
   times each task (claim wait relative to job publication, run time) with
   the profiler's clock and hands the per-job sample to the hook at the
   join, on the submitting domain.  With no profiler installed the hot
   paths pay exactly one atomic load and the output bytes are identical
   either way — profiling never changes what the pool computes, only what
   it reports. *)

type task_sample = {
  ts_domain : int;   (* 0 = the submitting domain, workers are 1.. *)
  ts_wait_s : float; (* job publication -> task claimed *)
  ts_run_s : float;
  ts_items : int;
}

type job_sample = {
  js_pool_size : int;
  js_tasks : int;
  js_chunk : int;     (* items per task, rounded up *)
  js_items : int;
  js_cost : int;      (* total declared ~cost units *)
  js_span_s : float;  (* publication -> join, on the submitting domain *)
  js_inline : bool;   (* ran serially on the caller (size 1 / tiny input) *)
  js_bypass : bool;   (* inline because total cost < the work threshold *)
  js_samples : task_sample array;
}

type profiler = {
  pr_clock : unit -> float;
  pr_on_job : job_sample -> unit;        (* called on the submitting domain *)
  pr_on_nested_inline : int -> unit;     (* items of a nested inline map *)
}

let profiler : profiler option Atomic.t = Atomic.make None
let set_profiler p = Atomic.set profiler p

(* Stable per-domain index for task samples: workers set theirs at spawn,
   every other domain (the submitter) reads the default 0. *)
let domain_index = Domain.DLS.new_key (fun () -> 0)

let null_sample = { ts_domain = 0; ts_wait_s = 0.; ts_run_s = 0.; ts_items = 0 }

type t = {
  psize : int;
  lock : Mutex.t;
  cond : Condition.t;      (* signals both new jobs and job completion *)
  mutable job : job option;
  mutable gen : int;       (* bumped per submission; wakes the workers *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

(* Set while a domain is executing pool tasks: a nested submission from
   inside a task runs inline on that domain, keeping helpers that use the
   pool themselves (e.g. a tree build inside a parallel persist) safe. *)
let in_task = Domain.DLS.new_key (fun () -> false)

(* Claim and run tasks until the job's counter is exhausted; the domain
   that completes the last task wakes the submitter.  Tasks are claimed
   in runs of [j.claim] per atomic op, so jobs with many more tasks than
   domains pay one counter bump per run instead of per task. *)
let drain t j =
  let was = Domain.DLS.get in_task in
  Domain.DLS.set in_task true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set in_task was)
    (fun () ->
      let rec go () =
        let i = Atomic.fetch_and_add j.next j.claim in
        if i < j.n then begin
          let len = min j.n (i + j.claim) - i in
          for k = i to i + len - 1 do
            j.run_task k
          done;
          if
            Int.equal (Atomic.fetch_and_add j.completed len) (j.n - len)
          then begin
            Mutex.lock t.lock;
            Condition.broadcast t.cond;
            Mutex.unlock t.lock
          end;
          go ()
        end
      in
      go ())

let worker_loop t =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while (not t.stopped) && Int.equal t.gen !last_gen do
      Condition.wait t.cond t.lock
    done;
    if t.stopped then begin
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      let g = t.gen and j = t.job in
      Mutex.unlock t.lock;
      last_gen := g;
      match j with None -> () | Some j -> drain t j
    end
  done

let create psize =
  if psize < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    { psize;
      lock = Mutex.create ();
      cond = Condition.create ();
      job = None;
      gen = 0;
      stopped = false;
      workers = [] }
  in
  if psize > 1 then
    t.workers <-
      List.init (psize - 1) (fun i ->
          Domain.spawn (fun () ->
              Domain.DLS.set domain_index (i + 1);
              worker_loop t));
  t

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.lock;
    t.stopped <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* Publish a job, help drain it, then block until the last task (possibly
   on a worker) completes.  Atomic increments on [completed] order the
   workers' result writes before the submitter's reads. *)
let run_job t run_task n ~claim =
  let j =
    { run_task; n; claim; next = Atomic.make 0; completed = Atomic.make 0 }
  in
  Mutex.lock t.lock;
  t.job <- Some j;
  t.gen <- t.gen + 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  drain t j;
  Mutex.lock t.lock;
  while Atomic.get j.completed < n do
    Condition.wait t.cond t.lock
  done;
  t.job <- None;
  Mutex.unlock t.lock

type 'b slot =
  | Pending
  | Done of 'b array * Work.task_work
  | Raised of exn * Printexc.raw_backtrace

(* Cost-sized batches below this many units run serially with zero task
   submissions: for tiny batches the publish/wake/join handshake costs
   more than the work. *)
let work_threshold = 65536

(* The serial execution of a top-level map, verbatim — no captures, no
   domains, no locks.  Under a profiler it is still timed: that is the
   whole job at pool size 1. *)
let inline_map ~cost_units ~bypass t f arr n =
  match Atomic.get profiler with
  | None -> Array.map f arr
  | Some p ->
    let t0 = p.pr_clock () in
    let out = Array.map f arr in
    let dt = p.pr_clock () -. t0 in
    p.pr_on_job
      { js_pool_size = t.psize;
        js_tasks = 1;
        js_chunk = n;
        js_items = n;
        js_cost = cost_units;
        js_span_s = dt;
        js_inline = true;
        js_bypass = bypass;
        js_samples =
          [| { ts_domain = Domain.DLS.get domain_index; ts_wait_s = 0.;
               ts_run_s = dt; ts_items = n } |] };
    out

(* Submit/join over explicit task bounds: task [k] covers items
   [bounds.(k) .. bounds.(k+1) - 1].  Results land in per-task slots and
   each task's Work is captured on its domain, then absorbed here in
   submission order. *)
let submit_bounded t f arr n ~bounds ~cost_units =
  let ntasks = Array.length bounds - 1 in
  let slots = Array.make ntasks Pending in
  let run_task k =
    let lo = bounds.(k) in
    let len = bounds.(k + 1) - lo in
    match
      Work.capture (fun () -> Array.init len (fun i -> f arr.(lo + i)))
    with
    | vals, tw -> slots.(k) <- Done (vals, tw)
    | exception e -> slots.(k) <- Raised (e, Printexc.get_raw_backtrace ())
  in
  let prof = Atomic.get profiler in
  let t0 = match prof with Some p -> p.pr_clock () | None -> 0. in
  let samples =
    match prof with
    | Some _ -> Array.make ntasks null_sample
    | None -> [||]
  in
  let run_task =
    match prof with
    | None -> run_task
    | Some p ->
      fun k ->
        let ts = p.pr_clock () in
        run_task k;
        let te = p.pr_clock () in
        samples.(k) <-
          { ts_domain = Domain.DLS.get domain_index;
            ts_wait_s = ts -. t0;
            ts_run_s = te -. ts;
            ts_items = bounds.(k + 1) - bounds.(k) }
  in
  run_job t run_task ntasks ~claim:(max 1 (ntasks / (t.psize * 4)));
  (match prof with
   | Some p ->
     p.pr_on_job
       { js_pool_size = t.psize;
         js_tasks = ntasks;
         js_chunk = (n + ntasks - 1) / ntasks;
         js_items = n;
         js_cost = cost_units;
         js_span_s = p.pr_clock () -. t0;
         js_inline = false;
         js_bypass = false;
         js_samples = samples }
   | None -> ());
  (* Join in submission order: absorb each task's work up to the first
     raise, so counters match a serial run cut at that point. *)
  let first_exn = ref None in
  for k = 0 to ntasks - 1 do
    if Option.is_none !first_exn then begin
      match slots.(k) with
      | Done (_, tw) -> Work.absorb tw
      | Raised (e, bt) -> first_exn := Some (e, bt)
      | Pending -> assert false
    end
  done;
  match !first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    let seed =
      match slots.(0) with
      | Done (vals, _) -> vals.(0)
      | Pending | Raised _ -> assert false
    in
    let out = Array.make n seed in
    Array.iteri
      (fun k slot ->
        match slot with
        | Done (vals, _) ->
          Array.blit vals 0 out bounds.(k) (Array.length vals)
        | Pending | Raised _ -> assert false)
      slots;
    out

let parallel_map ~cost t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if Domain.DLS.get in_task then begin
    (* Nested map from inside a task: inline, without consulting the cost
       hook.  The profiler only counts it, atomically, since it runs
       concurrently with the submitting domain's bookkeeping. *)
    (match Atomic.get profiler with
     | Some p -> p.pr_on_nested_inline n
     | None -> ());
    Array.map f arr
  end
  else if t.psize = 1 || t.stopped || n < 2 then begin
    (* Still charge the declared cost (and classify sub-threshold batches
       as bypasses) on the serial path, so the profiler's cost/bypass
       accounting is pool-size-invariant. *)
    let total = Array.fold_left (fun acc x -> acc + cost x) 0 arr in
    inline_map ~cost_units:total ~bypass:(total < work_threshold) t f arr n
  end
  else begin
    (* Size tasks by declared work (e.g. bytes to hash), not item count, so
       one huge item does not ride in the same task as a run of tiny ones.
       Each task greedily takes items until it holds at least [quantum]
       cost units. *)
    let costs = Array.map cost arr in
    let total = Array.fold_left ( + ) 0 costs in
    if total < work_threshold then
      inline_map ~cost_units:total ~bypass:true t f arr n
    else begin
      let quantum = max work_threshold (total / (t.psize * 8)) in
      let bounds = Array.make (n + 1) 0 in
      let ntasks = ref 0 in
      let i = ref 0 in
      while !i < n do
        bounds.(!ntasks) <- !i;
        incr ntasks;
        let acc = ref 0 in
        while !i < n && !acc < quantum do
          acc := !acc + costs.(!i);
          incr i
        done
      done;
      let ntasks = !ntasks in
      bounds.(ntasks) <- n;
      if ntasks < 2 then inline_map ~cost_units:total ~bypass:false t f arr n
      else
        submit_bounded t f arr n ~bounds:(Array.sub bounds 0 (ntasks + 1))
          ~cost_units:total
    end
  end

(* --- the process-global pool --- *)

let env_size () =
  match Sys.getenv_opt "GLASSDB_DOMAINS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some k when k >= 1 -> k
     | Some _ | None -> 1)

let global_pool : t option ref = ref None
let requested_size = ref 0 (* 0 = not yet resolved from the environment *)
let exit_hook = ref false

let global_size () =
  if !requested_size = 0 then requested_size := env_size ();
  !requested_size

let global () =
  match !global_pool with
  | Some p -> p
  | None ->
    let p = create (global_size ()) in
    global_pool := Some p;
    if not !exit_hook then begin
      exit_hook := true;
      at_exit (fun () ->
          match !global_pool with Some p -> shutdown p | None -> ())
    end;
    p

let set_global_size n =
  if n < 1 then invalid_arg "Pool.set_global_size: size must be >= 1";
  (match !global_pool with Some p -> shutdown p | None -> ());
  global_pool := None;
  requested_size := n

(* --- locks for domain-safe shared structures --- *)

module Lock = struct
  type stats = {
    ls_name : string;
    mutable ls_acquires : int;
    mutable ls_contended : int;
    mutable ls_wait_s : float;
    mutable ls_max_wait_s : float;
    mutable ls_hold_s : float;
  }

  type lock = { lm : Mutex.t; lstats : stats option }

  (* Registry of every named lock ever created; entries are a few words
     each and aggregate by name at snapshot time, so per-shard locks
     (node stores create up to 16 apiece) stay cheap.  The meta-mutex is
     sanctioned by this file's D004 allow. *)
  let registry : stats list ref = ref []
  let registry_m = Mutex.create ()

  let create ?name () =
    match name with
    | None -> { lm = Mutex.create (); lstats = None }
    | Some ls_name ->
      let s =
        { ls_name; ls_acquires = 0; ls_contended = 0; ls_wait_s = 0.;
          ls_max_wait_s = 0.; ls_hold_s = 0. }
      in
      Mutex.lock registry_m;
      registry := s :: !registry;
      Mutex.unlock registry_m;
      { lm = Mutex.create (); lstats = Some s }

  let with_lock l f =
    match (Atomic.get profiler, l.lstats) with
    | Some p, Some s ->
      (* Contention is detected by try_lock: a failed fast path means
         another domain held the lock, and the blocking acquire is timed.
         All stats fields are mutated while holding the lock itself, so
         they need no further synchronization. *)
      let contended = not (Mutex.try_lock l.lm) in
      let wait =
        if contended then begin
          let t0 = p.pr_clock () in
          Mutex.lock l.lm;
          p.pr_clock () -. t0
        end
        else 0.
      in
      s.ls_acquires <- s.ls_acquires + 1;
      if contended then begin
        s.ls_contended <- s.ls_contended + 1;
        s.ls_wait_s <- s.ls_wait_s +. wait;
        if wait > s.ls_max_wait_s then s.ls_max_wait_s <- wait
      end;
      let held = p.pr_clock () in
      Fun.protect
        ~finally:(fun () ->
          s.ls_hold_s <- s.ls_hold_s +. (p.pr_clock () -. held);
          Mutex.unlock l.lm)
        f
    | _ ->
      Mutex.lock l.lm;
      Fun.protect ~finally:(fun () -> Mutex.unlock l.lm) f

  type snapshot = {
    sn_name : string;
    sn_locks : int;
    sn_acquires : int;
    sn_contended : int;
    sn_wait_s : float;
    sn_max_wait_s : float;
    sn_hold_s : float;
  }

  let snapshot () =
    Mutex.lock registry_m;
    let all = !registry in
    Mutex.unlock registry_m;
    let tbl = Hashtbl.create 8 in
    (* Only instances acquired since the last [reset_stats] count: the
       registry is append-only, so dead instances (a torn-down cluster's
       shard locks) would otherwise skew [sn_locks] across runs. *)
    let all = List.filter (fun s -> s.ls_acquires > 0) all in
    List.iter
      (fun s ->
        let cur =
          match Hashtbl.find_opt tbl s.ls_name with
          | Some c -> c
          | None ->
            { sn_name = s.ls_name; sn_locks = 0; sn_acquires = 0;
              sn_contended = 0; sn_wait_s = 0.; sn_max_wait_s = 0.;
              sn_hold_s = 0. }
        in
        Hashtbl.replace tbl s.ls_name
          { cur with
            sn_locks = cur.sn_locks + 1;
            sn_acquires = cur.sn_acquires + s.ls_acquires;
            sn_contended = cur.sn_contended + s.ls_contended;
            sn_wait_s = cur.sn_wait_s +. s.ls_wait_s;
            sn_max_wait_s = Float.max cur.sn_max_wait_s s.ls_max_wait_s;
            sn_hold_s = cur.sn_hold_s +. s.ls_hold_s })
      all;
    Det.sorted_bindings ~cmp:String.compare tbl |> List.map snd

  let reset_stats () =
    Mutex.lock registry_m;
    List.iter
      (fun s ->
        s.ls_acquires <- 0;
        s.ls_contended <- 0;
        s.ls_wait_s <- 0.;
        s.ls_max_wait_s <- 0.;
        s.ls_hold_s <- 0.)
      !registry;
    Mutex.unlock registry_m
end
