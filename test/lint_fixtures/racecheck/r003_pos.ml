(* Fixture: R003 positive — IO and a blocking syscall inside a pooled
   task closure. *)
let slow pool xs =
  Glassdb_util.Pool.parallel_map ~cost:(fun _ -> 1) pool
    (fun x ->
      print_endline "tick";
      Unix.sleepf 0.1;
      x + 1)
    xs
