(* Effects-based discrete-event scheduler.

   Every process runs under the same deep handler.  Suspension is expressed
   with a single generic [Suspend] effect carrying a registration function:
   the handler turns the delimited continuation into a one-shot waker and
   passes it to the registration function, which stores it wherever the
   process is waiting (timer heap, ivar waiter list, resource queue). *)

open Effect
open Effect.Deep

exception Stopped

type sched = {
  events : (unit -> unit) Event_heap.t;
  mutable time : float;
  mutable seq : int;
  mutable stopped : bool;
  mutable failure : exn option;
}

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let current : sched option ref = ref None

let scheduler () =
  match !current with
  | Some s -> s
  | None -> failwith "Sim: called outside Sim.run"

let schedule s ~delay fn =
  if delay < 0. then invalid_arg "Sim: negative delay";
  s.seq <- s.seq + 1;
  Event_heap.push s.events ~time:(s.time +. delay) ~seq:s.seq fn

(* Run [f] as a process body under the effect handler. *)
let exec s f =
  match_with f ()
    { retc = (fun () -> ());
      exnc =
        (fun e ->
          match e with
          | Stopped -> ()
          | e -> if s.failure = None then s.failure <- Some e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, _) continuation) ->
                let resumed = ref false in
                let waker v =
                  if not !resumed then begin
                    resumed := true;
                    if s.stopped then discontinue k Stopped
                    else continue k v
                  end
                in
                register waker)
          | _ -> None);
    }

let run ?until main =
  if !current <> None then failwith "Sim.run: nested simulations not supported";
  let s =
    { events = Event_heap.create (); time = 0.; seq = 0; stopped = false;
      failure = None }
  in
  current := Some s;
  let finish () = current := None in
  (try
     exec s main;
     let continue_run () =
       (not s.stopped)
       && s.failure = None
       &&
       match Event_heap.peek_time s.events with
       | None -> false
       | Some t -> (match until with Some u -> t <= u | None -> true)
     in
     while continue_run () do
       match Event_heap.pop s.events with
       | None -> ()
       | Some (t, _, fn) ->
         s.time <- t;
         fn ()
     done
   with e -> finish (); raise e);
  finish ();
  match s.failure with Some e -> raise e | None -> ()

let now () = (scheduler ()).time

let in_simulation () = !current <> None

let spawn f =
  let s = scheduler () in
  schedule s ~delay:0. (fun () -> exec s f)

let stop () = (scheduler ()).stopped <- true

let sleep d =
  if d < 0. then invalid_arg "Sim.sleep: negative duration";
  let s = scheduler () in
  perform (Suspend (fun waker -> schedule s ~delay:d (fun () -> waker ())))

module Ivar = struct
  type 'a state =
    | Empty of ('a -> unit) list  (* waiting wakers, newest first *)
    | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let try_fill t v =
    match t.state with
    | Full _ -> false
    | Empty waiters ->
      t.state <- Full v;
      let s = scheduler () in
      List.iter
        (fun waker -> schedule s ~delay:0. (fun () -> waker v))
        (List.rev waiters);
      true

  let fill t v =
    if not (try_fill t v) then invalid_arg "Sim.Ivar.fill: already filled"

  let read t =
    match t.state with
    | Full v -> v
    | Empty _ ->
      perform
        (Suspend
           (fun waker ->
             match t.state with
             | Full v -> waker v
             | Empty ws -> t.state <- Empty (waker :: ws)))

  let read_timeout t d =
    (* Race the value against a timer through an intermediate cell. *)
    match t.state with
    | Full v -> Some v
    | Empty _ ->
      let s = scheduler () in
      perform
        (Suspend
           (fun waker ->
             let done_ = ref false in
             let settle v =
               if not !done_ then begin
                 done_ := true;
                 waker v
               end
             in
             (match t.state with
              | Full v -> settle (Some v)
              | Empty ws -> t.state <- Empty ((fun v -> settle (Some v)) :: ws));
             schedule s ~delay:d (fun () -> settle None)))
end

module Resource = struct
  type t = {
    mutable available : int;
    capacity : int;
    waiters : (unit -> unit) Queue.t;
  }

  let create capacity =
    if capacity <= 0 then invalid_arg "Sim.Resource.create";
    { available = capacity; capacity; waiters = Queue.create () }

  let acquire t =
    if t.available > 0 then t.available <- t.available - 1
    else
      perform (Suspend (fun waker -> Queue.add (fun () -> waker ()) t.waiters))

  let release t =
    match Queue.take_opt t.waiters with
    | Some waker ->
      (* Hand the slot directly to the next waiter. *)
      let s = scheduler () in
      schedule s ~delay:0. waker
    | None ->
      if t.available >= t.capacity then
        invalid_arg "Sim.Resource.release: not held";
      t.available <- t.available + 1

  let use t f =
    acquire t;
    match f () with
    | v -> release t; v
    | exception e -> release t; raise e

  let in_use t = t.capacity - t.available
  let queue_length t = Queue.length t.waiters
end
