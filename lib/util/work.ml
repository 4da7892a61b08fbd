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

(* --- accumulator state ---

   Counters, the attribution frame stack and the attribution table live in
   one module-level record. *)

type frame = { comp : string; fstart : counters; mutable child : counters }

type state = {
  mutable cur : counters;
  mutable frames : frame list;
  attributed : (string, counters ref) Hashtbl.t;
}

let st = { cur = zero; frames = []; attributed = Hashtbl.create 16 }

let note_hash ?(n = 1) () =
  st.cur <- { st.cur with hashes = st.cur.hashes + n }

let note_node_write ~bytes =
  st.cur <-
    { st.cur with
      node_writes = st.cur.node_writes + 1;
      bytes_written = st.cur.bytes_written + bytes }

let note_page_read ?(n = 1) () =
  st.cur <- { st.cur with page_reads = st.cur.page_reads + n }

let note_cache_hit ?(n = 1) () =
  st.cur <- { st.cur with cache_hits = st.cur.cache_hits + n }

let snapshot () = st.cur
let reset () = st.cur <- zero

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

let attribution_on = ref false

let attribution_enabled () = !attribution_on

let set_attribution on =
  attribution_on := on;
  if not on then st.frames <- []

let reset_attribution () =
  Hashtbl.reset st.attributed;
  st.frames <- []

let attribute comp delta =
  if not (is_zero delta) then begin
    match Hashtbl.find_opt st.attributed comp with
    | Some cell -> cell := add !cell delta
    | None -> Hashtbl.replace st.attributed comp (ref delta)
  end

let with_component comp f =
  if not !attribution_on then f ()
  else begin
    let fr = { comp; fstart = st.cur; child = zero } in
    st.frames <- fr :: st.frames;
    Fun.protect
      ~finally:(fun () ->
        (match st.frames with
         | top :: rest when top == fr -> st.frames <- rest
         | _ ->
           (* Only reachable if attribution was toggled mid-scope. *)
           st.frames <- []);
        let total = sub st.cur fr.fstart in
        attribute comp (sub total fr.child);
        match st.frames with
        | parent :: _ -> parent.child <- add parent.child total
        | [] -> ())
      f
  end

let attribution () =
  Det.sorted_bindings ~cmp:String.compare st.attributed
  |> List.map (fun (comp, cell) -> (comp, !cell))
