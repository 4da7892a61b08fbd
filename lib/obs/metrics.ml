open Glassdb_util

(* A process-global labeled metric registry.  Handles are plain mutable
   records, so the hot path (incrementing a counter, observing a latency)
   is a field update; the registry hashtable is touched only at
   registration time.  Everything is keyed and snapshotted in a canonical
   order so identical simulated runs produce byte-identical output. *)

type labels = (string * string) list

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

type counter = { mutable c_value : float }

type gauge = {
  g_read : unit -> float;
  mutable g_last : float;
  mutable g_series : (float * float) list; (* (time, value), newest first *)
  mutable g_samples : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Lhist.t

(* Bound on the per-gauge time series kept in memory; at the samplers'
   default cadence this is hours of simulated time. *)
let max_gauge_samples = 100_000

let registry : (string * labels, metric) Hashtbl.t = Hashtbl.create 64

let reset () = Hashtbl.reset registry

let find_or_register name labels make =
  let key = (name, canon labels) in
  match Hashtbl.find_opt registry key with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.replace registry key m;
    m

let counter ~name ?(labels = []) () =
  match
    find_or_register name labels (fun () -> Counter { c_value = 0. })
  with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)

let inc ?(by = 1.) c = c.c_value <- c.c_value +. by
let counter_value c = c.c_value

let gauge ~name ?(labels = []) read =
  let key = (name, canon labels) in
  (* Gauges are callbacks into live objects (a node's WAL, a resource
     pool); re-registering replaces the callback so a fresh cluster takes
     over its shard's gauge from a previous run. *)
  Hashtbl.replace registry key
    (Gauge { g_read = read; g_last = 0.; g_series = []; g_samples = 0 })

let histogram ~name ?(labels = []) () =
  match
    find_or_register name labels (fun () -> Histogram (Lhist.create ()))
  with
  | Histogram h -> h
  | _ ->
    invalid_arg (Printf.sprintf "Metrics.histogram: %S is not a histogram" name)

let observe h v = Lhist.add h v

let sample_gauges now =
  (* Sampling is insertion-order independent: each gauge only touches
     itself, so an unordered walk is safe. *)
  Det.unordered_iter
    (fun _ m ->
      match m with
      | Gauge g ->
        let v = g.g_read () in
        g.g_last <- v;
        if g.g_samples < max_gauge_samples then begin
          g.g_series <- (now, v) :: g.g_series;
          g.g_samples <- g.g_samples + 1
        end
      | Counter _ | Histogram _ -> ())
    registry

(* --- snapshots --- *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p99 : float;
  h_buckets : (float * float * int) list;
}

type value =
  | Vcounter of float
  | Vgauge of float * (float * float) list (* last, series oldest first *)
  | Vhistogram of hist_snapshot

type entry = { e_name : string; e_labels : labels; e_value : value }

let compare_labels =
  List.compare (fun (k1, v1) (k2, v2) ->
      match String.compare k1 k2 with
      | 0 -> String.compare v1 v2
      | c -> c)

let compare_key (n1, l1) (n2, l2) =
  match String.compare n1 n2 with 0 -> compare_labels l1 l2 | c -> c

let snapshot () =
  Det.sorted_bindings ~cmp:compare_key registry
  |> List.map (fun ((name, labels), m) ->
      let value =
        match m with
        | Counter c -> Vcounter c.c_value
        | Gauge g -> Vgauge (g.g_last, List.rev g.g_series)
        | Histogram h ->
          Vhistogram
            { h_count = Lhist.count h;
              h_sum = Lhist.sum h;
              h_min = Lhist.min_value h;
              h_max = Lhist.max_value h;
              h_p50 = Lhist.percentile h 0.5;
              h_p99 = Lhist.percentile h 0.99;
              h_buckets = Lhist.buckets h }
      in
      { e_name = name; e_labels = labels; e_value = value })

let fq_name e =
  match e.e_labels with
  | [] -> e.e_name
  | labels ->
    e.e_name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"
