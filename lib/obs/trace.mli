(** Virtual-time tracing spans.

    Span taxonomy (the transaction lifecycle, client then server side):
    ["execute"] (whole client transaction), ["prepare"] / ["commit"]
    (per-round client RPC fan-outs and, with [cat:"node"], the per-shard
    server handlers), ["persist"] (one persister block step),
    ["deferred-verify"] (a client's get-proof flush), ["audit"] (an
    auditor's per-shard re-execution round).  Tracks separate concurrent
    actors: clients use their client id, server shards [1000 + shard],
    auditors [2000 + id].

    Tracing is disabled by default and [span] is then a single flag check
    around the thunk — zero simulated cost, since only [Work] counters and
    [Sim] sleeps are charged.  Enabled, completed spans accumulate in a
    bounded in-memory buffer with virtual time as the timebase; export via
    {!Export.trace_json} (Chrome trace-event JSON, loadable in Perfetto). *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_track : int;
  ev_ts : float;   (** virtual seconds *)
  ev_dur : float;  (** virtual seconds; -1 for instant events *)
  ev_attrs : (string * string) list;
  ev_trace : int;  (** trace id; 0 = none *)
  ev_span : int;   (** this span's id; 0 = none (instants) *)
  ev_parent : int; (** parent span id; 0 = root *)
}

(** Causal trace context, carried across RPC boundaries so remote
    prepare/commit/persist spans nest under the originating client span.
    A root span starts a trace ([trace_id] = its own span id); children
    inherit the trace id whatever track they land on.  Ids come from one
    counter reset by {!clear}, so identical runs number identically.
    [trace_id = 0] means "no context" — what {!span_ctx}
    hands its thunk while tracing is disabled; passing it as a parent is
    equivalent to omitting it, so contexts can be threaded unconditionally
    at zero cost. *)
type ctx = { trace_id : int; span_id : int }

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Clear the buffer and start recording (default capacity 200k events;
    beyond it spans are counted in {!dropped} instead of stored). *)

val disable : unit -> unit
val clear : unit -> unit

val span :
  ?cat:string -> ?track:int -> ?attrs:(string * string) list -> ?parent:ctx ->
  name:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  Timestamps use [Sim.now] when inside a
    simulation, 0 otherwise.  Exception-safe: the span closes (and is
    recorded) even if the thunk raises.  [parent] links the span into an
    existing trace (see {!ctx}). *)

val span_ctx :
  ?cat:string -> ?track:int -> ?attrs:(string * string) list -> ?parent:ctx ->
  name:string -> (ctx -> 'a) -> 'a
(** Like {!span}, but hands the thunk its own context for threading to
    children — including across {!Cluster.call}-style RPC boundaries.
    While tracing is disabled the thunk receives the null context
    ([trace_id = 0]). *)

val instant :
  ?cat:string -> ?track:int -> ?attrs:(string * string) list -> ?parent:ctx ->
  string -> unit
(** Record a zero-duration marker event, optionally attached to the
    parent span's trace (retry markers, fault annotations). *)

val events : unit -> event list
(** Completed events, oldest first. *)

val event_count : unit -> int
val dropped : unit -> int
