let global_size () = 1
