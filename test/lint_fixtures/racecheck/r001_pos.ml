(* Fixture: R001 positive — module-level table mutated from a pooled
   task with no lock. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 16

let record pool keys =
  Glassdb_util.Pool.parallel_map ~cost:String.length pool
    (fun k -> Hashtbl.replace table k 1)
    keys
