(** Work attribution: per-subsystem breakdown of the global
    {!Glassdb_util.Work} counters.

    Semantics (exclusive / "self" attribution): a scope's component is
    charged the counter deltas accrued directly inside it; work done in a
    nested scope is charged to the inner component only.  So
    [Ledger.append_block] (component ["ledger"]) calling
    [Pos_tree.insert_batch] (component ["postree"]) splits its hashes into
    header/body hashing under ["ledger"] and tree rebuild under
    ["postree"].  Component names in this repository: ["postree"],
    ["ledger"], ["wal"], ["proof"], ["verify"], ["audit"].

    Instrumented libraries call [Glassdb_util.Work.with_component]
    directly; this module is the enable/report surface.  Disabled by
    default (a scope is then one flag check). *)

open Glassdb_util

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Clear accumulated per-component totals. *)

val scoped : string -> (unit -> 'a) -> 'a
(** Alias of {!Glassdb_util.Work.with_component}. *)

val snapshot : unit -> (string * Work.counters) list
(** Accumulated per-component deltas, sorted by component name. *)
