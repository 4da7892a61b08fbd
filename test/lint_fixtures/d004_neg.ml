(* Fixture: D004 negative — serial maps, and reading the host's core count
   is not spawning anything. *)
let map f arr = Array.map f arr
let cores () = Domain.recommended_domain_count ()
let join_results rs = List.map (fun r -> r ()) rs
