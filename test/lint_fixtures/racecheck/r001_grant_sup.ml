(* Fixture: R001 suppressed by a whole-file grant in
   allow_fixture.sexp. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 16

let record pool keys =
  Glassdb_util.Pool.parallel_map ~cost:String.length pool
    (fun k -> Hashtbl.replace table k 1)
    keys
