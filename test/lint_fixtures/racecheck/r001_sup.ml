(* Fixture: R001 suppressed by a floating allow. *)
[@@@glassdb.lint.allow "R001"]

let table : (string, int) Hashtbl.t = Hashtbl.create 16

let record pool keys =
  Glassdb_util.Pool.parallel_map ~cost:String.length pool
    (fun k -> Hashtbl.replace table k 1)
    keys
