(* Fixture: R001 negative — every access to the shared table holds the
   same named lock, and the counter is Atomic. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 16
let table_lock = Glassdb_util.Pool.Lock.create ~name:"fixture.table" ()
let counter = Atomic.make 0

let record pool keys =
  Glassdb_util.Pool.parallel_map ~cost:String.length pool
    (fun k ->
      Atomic.incr counter;
      Glassdb_util.Pool.Lock.with_lock table_lock (fun () ->
          Hashtbl.replace table k 1))
    keys

let size () =
  Glassdb_util.Pool.Lock.with_lock table_lock (fun () -> Hashtbl.length table)
