(** Network model for the simulated cluster: a message between two nodes
    costs half the round-trip latency plus serialization over a shared
    per-link bandwidth.  Matches the paper's testbed (same-rack machines on
    a 1 Gbps network).  When a {!Faults} instance is attached, per-message
    drop/delay and link partitions apply on the fault-aware paths. *)

type t

val create : ?rtt:float -> ?bandwidth:float -> ?faults:Faults.t -> unit -> t
(** [rtt] in seconds (default 200e-6, a same-rack TCP round trip);
    [bandwidth] in bytes/second (default 1 Gbps = 125e6); [faults]
    defaults to {!Faults.none} (nothing ever dropped or delayed). *)

val faults_of : t -> Faults.t

val send : t -> bytes_len:int -> unit
(** Suspend the calling process for the one-way latency (fault-free path:
    control messages that the model treats as reliable). *)

val try_send :
  t -> ?note:(string -> unit) -> link:int -> bytes_len:int -> unit -> bool
(** One message on shard [link]'s link: pays the one-way latency plus any
    injected extra delay, then reports whether the message was delivered
    ([false] = dropped or partitioned; the sender finds out by timeout).
    [note] fires with ["delay"] / ["drop"] as faults hit the message —
    the hook through which RPC layers annotate the affected trace span
    (this module sits below the tracing stack and cannot emit events
    itself). *)

val rpc :
  t -> ?link:int -> req_bytes:int -> resp_bytes:int -> (unit -> 'a) ->
  'a option
(** [rpc net ~req_bytes ~resp_bytes f] models request transfer, server work
    [f ()], and response transfer.  With [link], both transfers consult the
    fault layer and [None] means the request or response was lost (note the
    server work still ran when only the response is lost). *)

val bytes_sent : t -> int
(** Total bytes accounted so far (for network-cost reporting). *)
