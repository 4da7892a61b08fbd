(* Fixture: D004 positive — domain spawn/join, raw threads, a raw mutex
   and a condition variable. *)
let lock = Mutex.create ()
let fire f = Domain.spawn f
let collect d = Domain.join d
let thread f = Thread.create f ()
let cond = Condition.create ()
