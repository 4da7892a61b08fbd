(* Fixture: R003 suppressed by an expression attribute on the IO call. *)
let slow pool xs =
  Glassdb_util.Pool.parallel_map ~cost:(fun _ -> 1) pool
    (fun x ->
      (print_endline "tick" [@glassdb.lint.allow "R003"]);
      x + 1)
    xs
