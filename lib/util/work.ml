type counters = {
  hashes : int;
  node_writes : int;
  bytes_written : int;
  page_reads : int;
  cache_hits : int;
}

let zero =
  { hashes = 0; node_writes = 0; bytes_written = 0; page_reads = 0;
    cache_hits = 0 }

let add a b =
  { hashes = a.hashes + b.hashes;
    node_writes = a.node_writes + b.node_writes;
    bytes_written = a.bytes_written + b.bytes_written;
    page_reads = a.page_reads + b.page_reads;
    cache_hits = a.cache_hits + b.cache_hits }

let sub a b =
  { hashes = a.hashes - b.hashes;
    node_writes = a.node_writes - b.node_writes;
    bytes_written = a.bytes_written - b.bytes_written;
    page_reads = a.page_reads - b.page_reads;
    cache_hits = a.cache_hits - b.cache_hits }

let is_zero c =
  c.hashes = 0 && c.node_writes = 0 && c.bytes_written = 0
  && c.page_reads = 0 && c.cache_hits = 0

(* --- per-domain state ---

   Counters, the attribution frame stack and the attribution table all
   live in domain-local storage: code running inside a {!Pool} task charges
   its own domain's accumulators without synchronization, and the pool
   merges them back into the submitting domain — in submission order, via
   {!capture}/{!absorb} — so the final totals are identical to a serial
   run at any pool size. *)

type frame = { comp : string; fstart : counters; mutable child : counters }

type ctx = {
  mutable cur : counters;
  mutable frames : frame list;
  mutable attributed : (string, counters ref) Hashtbl.t;
}

let ctx_key =
  Domain.DLS.new_key (fun () ->
      { cur = zero; frames = []; attributed = Hashtbl.create 16 })

let ctx () = Domain.DLS.get ctx_key

let note_hash ?(n = 1) () =
  let c = ctx () in
  c.cur <- { c.cur with hashes = c.cur.hashes + n }

let note_node_write ~bytes =
  let c = ctx () in
  c.cur <-
    { c.cur with
      node_writes = c.cur.node_writes + 1;
      bytes_written = c.cur.bytes_written + bytes }

let note_page_read ?(n = 1) () =
  let c = ctx () in
  c.cur <- { c.cur with page_reads = c.cur.page_reads + n }

let note_cache_hit ?(n = 1) () =
  let c = ctx () in
  c.cur <- { c.cur with cache_hits = c.cur.cache_hits + n }

let snapshot () = (ctx ()).cur
let reset () = (ctx ()).cur <- zero

let measure f =
  let before = snapshot () in
  match f () with
  | v -> (v, sub (snapshot ()) before)
  | exception e ->
    (* The counters already include whatever work [f] performed before
       raising — nothing to roll back — but preserve the backtrace so the
       measurement wrapper is invisible to error reports. *)
    let bt = Printexc.get_raw_backtrace () in
    Printexc.raise_with_backtrace e bt

(* --- per-component attribution --- *)

(* A scoped component stack: [with_component c f] attributes the work done
   directly inside [f] — excluding work inside nested [with_component]
   scopes — to component [c].  Frames live on an explicit stack; exits go
   through [Fun.protect] so an escaping exception still pops the frame and
   attributes the work performed up to the raise. *)

(* The enable flag is shared by all domains; it is only toggled between
   runs (never while a pool job is in flight), so an Atomic read suffices
   on the hot path. *)
let attribution_on = Atomic.make false

let attribution_enabled () = Atomic.get attribution_on

let set_attribution on =
  Atomic.set attribution_on on;
  if not on then (ctx ()).frames <- []

let reset_attribution () =
  let c = ctx () in
  Hashtbl.reset c.attributed;
  c.frames <- []

let attribute c comp delta =
  if not (is_zero delta) then begin
    match Hashtbl.find_opt c.attributed comp with
    | Some cell -> cell := add !cell delta
    | None -> Hashtbl.replace c.attributed comp (ref delta)
  end

let with_component comp f =
  if not (Atomic.get attribution_on) then f ()
  else begin
    let c = ctx () in
    let fr = { comp; fstart = c.cur; child = zero } in
    c.frames <- fr :: c.frames;
    Fun.protect
      ~finally:(fun () ->
        (match c.frames with
         | top :: rest when top == fr -> c.frames <- rest
         | _ ->
           (* Only reachable if attribution was toggled mid-scope. *)
           c.frames <- []);
        let total = sub c.cur fr.fstart in
        attribute c comp (sub total fr.child);
        match c.frames with
        | parent :: _ -> parent.child <- add parent.child total
        | [] -> ())
      f
  end

let attribution () =
  Det.sorted_bindings ~cmp:String.compare (ctx ()).attributed
  |> List.map (fun (comp, cell) -> (comp, !cell))

(* --- task capture/absorb (the pool's merge protocol) --- *)

type task_work = {
  t_counters : counters;
  t_attributed : (string * counters) list;
}

let capture f =
  let c = ctx () in
  let saved_cur = c.cur
  and saved_frames = c.frames
  and saved_attr = c.attributed in
  c.cur <- zero;
  c.frames <- [];
  c.attributed <- Hashtbl.create 8;
  let restore () =
    let tw =
      { t_counters = c.cur;
        t_attributed =
          Det.sorted_bindings ~cmp:String.compare c.attributed
          |> List.map (fun (comp, cell) -> (comp, !cell)) }
    in
    c.cur <- saved_cur;
    c.frames <- saved_frames;
    c.attributed <- saved_attr;
    tw
  in
  match f () with
  | v -> (v, restore ())
  | exception e ->
    (* A raising task's partial work is dropped: serially the caller would
       not have executed past the raise either, and the pool re-raises at
       the join, so nothing downstream consumes the counters. *)
    let bt = Printexc.get_raw_backtrace () in
    ignore (restore ());
    Printexc.raise_with_backtrace e bt

let absorb tw =
  let c = ctx () in
  c.cur <- add c.cur tw.t_counters;
  if Atomic.get attribution_on then begin
    List.iter (fun (comp, d) -> attribute c comp d) tw.t_attributed;
    (* Work the task attributed inside its own scopes counts as nested-
       scope (child) work of the frame open at the join — exactly what a
       serial nested [with_component] would have recorded — while the
       task's unattributed remainder stays in the open frame's self time. *)
    match c.frames with
    | top :: _ ->
      let attr_total =
        List.fold_left (fun acc (_, d) -> add acc d) zero tw.t_attributed
      in
      top.child <- add top.child attr_total
    | [] -> ()
  end
