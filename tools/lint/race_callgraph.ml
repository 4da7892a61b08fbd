(* glassdb-racecheck phase 2a: whole-library call graph.

   Stitches the per-module summaries into:
   - a *pooled-reachable* set: functions callable (transitively) from a
     [Pool.parallel_map] task closure;
   - a *must-hold* map: locks held at every call site of a function
     (greatest fixpoint, intersection over call sites) — used by R001 to
     credit helpers that are only ever called under a lock;
   - a *may-hold* map: locks held at some call site (least fixpoint,
     union) — used by R002 to build the acquires-while-holding graph.

   Call resolution is syntactic: the last two components of a dotted
   identifier ("Storage.Node_store.put" -> module Node_store, value put);
   an unqualified name resolves within its own module.  Unresolved names
   are external (stdlib etc.) and classified by name in the rule pass.
   Exported functions (named in the module's .mli, or any value of a
   module without one) get must-hold = {} since outside callers are
   unknown. *)

type t = {
  g_pooled : (string, unit) Hashtbl.t;           (* fn -> reachable from task *)
  g_must : (string, string list) Hashtbl.t;      (* fn -> locks held at every call *)
  g_may : (string, string list) Hashtbl.t;       (* fn -> locks held at some call *)
  g_fns : string list;                           (* defined fns, stable order *)
}

let resolve ~(modules : (string, Race_summary.t) Hashtbl.t) ~cur_module name =
  match Race_summary.last_two name with
  | None ->
    (match Hashtbl.find_opt modules cur_module with
     | Some m when List.mem name m.Race_summary.m_defined ->
       Some (cur_module ^ "." ^ name)
     | _ -> None)
  | Some (m, f) ->
    (match Hashtbl.find_opt modules m with
     | Some sm when List.mem f sm.Race_summary.m_defined -> Some (m ^ "." ^ f)
     | _ -> None)

let union a b =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) a b

let inter a b = List.filter (fun x -> List.mem x b) a

let same_set a b =
  List.length a = List.length b && List.for_all (fun x -> List.mem x b) a

(* All (caller-event, callee) pairs with the callee resolved in-library. *)
let call_edges ~modules (summaries : Race_summary.t list) =
  List.concat_map
    (fun (s : Race_summary.t) ->
      List.filter_map
        (fun (ev : Race_summary.event) ->
          match ev.e_kind with
          | Call name ->
            (match resolve ~modules ~cur_module:s.m_name name with
             | Some callee -> Some (ev, callee)
             | None -> None)
          | _ -> None)
        s.m_events)
    summaries

let exported (s : Race_summary.t) fn_name =
  match s.m_exported with
  | None -> true
  | Some names -> List.mem fn_name names

let build (summaries : Race_summary.t list) =
  let modules = Hashtbl.create 16 in
  List.iter
    (fun (s : Race_summary.t) -> Hashtbl.replace modules s.m_name s)
    summaries;
  let fns =
    List.concat_map
      (fun (s : Race_summary.t) ->
        List.map (fun n -> s.m_name ^ "." ^ n) s.m_defined)
      summaries
  in
  let edges = call_edges ~modules summaries in
  (* Pooled-reachable: seed with callees of in-task events, then close
     over the call graph. *)
  let pooled = Hashtbl.create 32 in
  let worklist = ref [] in
  let mark fn =
    if not (Hashtbl.mem pooled fn) then begin
      Hashtbl.replace pooled fn ();
      worklist := fn :: !worklist
    end
  in
  List.iter
    (fun ((ev : Race_summary.event), callee) ->
      if ev.e_in_task then mark callee)
    edges;
  while !worklist <> [] do
    let fn = List.hd !worklist in
    worklist := List.tl !worklist;
    List.iter
      (fun ((ev : Race_summary.event), callee) ->
        if String.equal ev.e_fn fn then mark callee)
      edges
  done;
  (* Named locks in play (the must-hold top element). *)
  let all_locks =
    List.fold_left
      (fun acc (s : Race_summary.t) ->
        List.fold_left
          (fun acc (ev : Race_summary.event) ->
            match ev.e_kind with
            | Acquire l when not (String.equal l "?") -> union acc [ l ]
            | _ -> acc)
          acc s.m_events)
      [] summaries
  in
  let is_exported fn =
    match String.index_opt fn '.' with
    | None -> true
    | Some i ->
      let m = String.sub fn 0 i in
      let n = String.sub fn (i + 1) (String.length fn - i - 1) in
      (match Hashtbl.find_opt modules m with
       | Some s -> exported s n
       | None -> true)
  in
  let must = Hashtbl.create 32 in
  let may = Hashtbl.create 32 in
  List.iter
    (fun fn ->
      Hashtbl.replace must fn (if is_exported fn then [] else all_locks);
      Hashtbl.replace may fn [])
    fns;
  let lookup tbl fn =
    match Hashtbl.find_opt tbl fn with Some l -> l | None -> []
  in
  let changed = ref true in
  let site_locks tbl (ev : Race_summary.event) =
    union ev.e_locks (lookup tbl ev.e_fn)
  in
  while !changed do
    changed := false;
    List.iter
      (fun ((ev : Race_summary.event), callee) ->
        if not (is_exported callee) then begin
          let cur = lookup must callee in
          let next = inter cur (site_locks must ev) in
          if not (same_set cur next) then begin
            Hashtbl.replace must callee next;
            changed := true
          end
        end;
        let cur = lookup may callee in
        let next = union cur (site_locks may ev) in
        if not (same_set cur next) then begin
          Hashtbl.replace may callee next;
          changed := true
        end)
      edges
  done;
  (* A function never called in-library keeps must = all_locks when it is
     not exported (dead or attribute-only code): reset those to {} so
     they can't launder protection. *)
  List.iter
    (fun fn ->
      if
        (not (is_exported fn))
        && not
             (List.exists (fun ((_ : Race_summary.event), c) ->
                  String.equal c fn)
                edges)
      then Hashtbl.replace must fn [])
    fns;
  { g_pooled = pooled; g_must = must; g_may = may; g_fns = fns }

let pooled_fn g fn = Hashtbl.mem g.g_pooled fn

(* Is this event in pooled context: syntactically inside a task closure,
   or inside a function reachable from one? *)
let pooled_event g (ev : Race_summary.event) =
  ev.e_in_task || pooled_fn g ev.e_fn

let must_held g (ev : Race_summary.event) =
  union ev.e_locks
    (match Hashtbl.find_opt g.g_must ev.e_fn with Some l -> l | None -> [])

let may_held g (ev : Race_summary.event) =
  union ev.e_locks
    (match Hashtbl.find_opt g.g_may ev.e_fn with Some l -> l | None -> [])
