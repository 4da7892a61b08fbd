(* Fixture: R001 negative — a per-domain scratch buffer fetched through
   Glassdb_util.Scratch is task-local by construction (every domain owns
   its value), so pooled tasks may mutate it without a lock. *)
let buf : Buffer.t Glassdb_util.Scratch.t =
  Glassdb_util.Scratch.create (fun () -> Buffer.create 256)

let render pool keys =
  Glassdb_util.Pool.parallel_map ~cost:(fun _ -> 1) pool
    (fun k ->
      let b = Glassdb_util.Scratch.get buf in
      Buffer.clear b;
      Buffer.add_string b k;
      Buffer.contents b)
    keys
