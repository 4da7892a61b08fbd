(* Fixture: R004 negative — tasks bump Work counters (the sanctioned
   protocol: captured per-domain, absorbed at the join); the snapshot is
   read on the submitting domain after the join. *)
let work pool xs =
  let r =
    Glassdb_util.Pool.parallel_map ~cost:(fun _ -> 1) pool
      (fun x ->
        Glassdb_util.Work.note_hash ();
        x + 1)
      xs
  in
  let s = Glassdb_util.Work.snapshot () in
  (r, s)
