let go pool keys =
  Glassdb_util.Pool.parallel_map ~cost:String.length pool
    (fun k -> Store.put k 0)
    keys
