(* Fixture: R003 negative — tasks stay compute-only; IO happens on the
   submitting domain after the join. *)
let ok pool xs =
  let r =
    Glassdb_util.Pool.parallel_map ~cost:(fun _ -> 1) pool (fun x -> x + 1) xs
  in
  print_endline "done";
  r
