open Glassdb_util

(* Facade over the Work attribution stack (see Glassdb_util.Work): the
   instrumented libraries call Work.with_component directly (they must not
   depend on obs); this module is the control and reporting surface. *)

let enable () = Work.set_attribution true

let disable () = Work.set_attribution false

let enabled = Work.attribution_enabled

let reset = Work.reset_attribution

let scoped = Work.with_component

let snapshot = Work.attribution
