(* Fixture: D004 negative — parallelism through the sanctioned pool. *)
let map ~cost f arr =
  Glassdb_util.Pool.parallel_map ~cost (Glassdb_util.Pool.global ()) f arr
let lock = Glassdb_util.Pool.Lock.create ()
let join_results rs = List.map (fun r -> r ()) rs
