open Glassdb_util

(* Serialization of the trace buffer and metric registry.  The emitter is
   deliberately tiny (no JSON dependency in the tree) and deterministic:
   fixed field order, canonical number formatting, sorted metric keys —
   two identical simulated runs must serialize byte-identically. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else if Float.is_finite f then
      Buffer.add_string buf (Printf.sprintf "%.6g" f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf (Str k);
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  emit buf j;
  Buffer.contents buf

(* Microsecond timestamps with fixed precision, so formatting is stable. *)
let us s = Num (Float.round (s *. 1e9) /. 1e3)

let json_of_event (e : Trace.event) =
  let base =
    [ ("name", Str e.Trace.ev_name);
      ("cat", Str e.Trace.ev_cat);
      ("ph", Str (if e.Trace.ev_dur < 0. then "i" else "X"));
      ("ts", us e.Trace.ev_ts) ]
  in
  let dur = if e.Trace.ev_dur < 0. then [] else [ ("dur", us e.Trace.ev_dur) ] in
  (* Causal links ride in args (trace_id / span_id / parent_span_id), so
     Perfetto queries can stitch a client's remote prepare/persist children
     back under the originating span; 0-valued ids are omitted. *)
  let num_if k v = if v > 0 then [ (k, Num (float_of_int v)) ] else [] in
  let args_fields =
    num_if "trace_id" e.Trace.ev_trace
    @ num_if "span_id" e.Trace.ev_span
    @ num_if "parent_span_id" e.Trace.ev_parent
    @ List.map (fun (k, v) -> (k, Str v)) e.Trace.ev_attrs
  in
  let args = match args_fields with [] -> [] | l -> [ ("args", Obj l) ] in
  Obj
    (base @ dur
     @ [ ("pid", Num 0.); ("tid", Num (float_of_int e.Trace.ev_track)) ]
     @ args)

(* Gauge series double as Chrome counter events so Perfetto renders queue
   depths and WAL growth as counter tracks alongside the spans. *)
let counter_events () =
  List.concat_map
    (fun e ->
      match e.Metrics.e_value with
      | Metrics.Vgauge (_, series) ->
        let name = Metrics.fq_name e in
        List.map
          (fun (t, v) ->
            Obj
              [ ("name", Str name);
                ("cat", Str "metrics");
                ("ph", Str "C");
                ("ts", us t);
                ("pid", Num 0.);
                ("tid", Num 0.);
                ("args", Obj [ ("value", Num v) ]) ])
          series
      | _ -> [])
    (Metrics.snapshot ())

let trace_json () =
  Obj
    [ ("displayTimeUnit", Str "ms");
      ("dropped_events", Num (float_of_int (Trace.dropped ())));
      ( "traceEvents",
        Arr (List.map json_of_event (Trace.events ()) @ counter_events ()) ) ]
  |> to_string

let json_of_counters (c : Work.counters) =
  Obj
    [ ("hashes", Num (float_of_int c.Work.hashes));
      ("node_writes", Num (float_of_int c.Work.node_writes));
      ("bytes_written", Num (float_of_int c.Work.bytes_written));
      ("page_reads", Num (float_of_int c.Work.page_reads));
      ("cache_hits", Num (float_of_int c.Work.cache_hits)) ]

let metrics_fields () =
  let entries = Metrics.snapshot () in
  let pick f = List.filter_map f entries in
  let counters =
    pick (fun e ->
        match e.Metrics.e_value with
        | Metrics.Vcounter v -> Some (Metrics.fq_name e, Num v)
        | _ -> None)
  in
  let gauges =
    pick (fun e ->
        match e.Metrics.e_value with
        | Metrics.Vgauge (last, series) ->
          Some
            ( Metrics.fq_name e,
              Obj
                [ ("last", Num last);
                  ( "samples",
                    Arr (List.map (fun (t, v) -> Arr [ Num t; Num v ]) series)
                  ) ] )
        | _ -> None)
  in
  let histograms =
    pick (fun e ->
        match e.Metrics.e_value with
        | Metrics.Vhistogram h ->
          Some
            ( Metrics.fq_name e,
              Obj
                [ ("count", Num (float_of_int h.Metrics.h_count));
                  ("sum", Num h.Metrics.h_sum);
                  ("min", Num h.Metrics.h_min);
                  ("max", Num h.Metrics.h_max);
                  ("p50", Num h.Metrics.h_p50);
                  ("p99", Num h.Metrics.h_p99);
                  ( "buckets",
                    Arr
                      (List.map
                         (fun (lo, hi, n) ->
                           Arr [ Num lo; Num hi; Num (float_of_int n) ])
                         h.Metrics.h_buckets) ) ] )
        | _ -> None)
  in
  let attribution =
    List.map
      (fun (comp, c) -> (comp, json_of_counters c))
      (Work.attribution ())
  in
  [ ("schema", Str "glassdb.metrics/v1");
    ("counters", Obj counters);
    ("gauges", Obj gauges);
    ("histograms", Obj histograms);
    ("attribution", Obj attribution) ]

let metrics_json () = to_string (Obj (metrics_fields ()))

let write_file ~path text =
  let oc = open_out path in
  output_string oc text;
  output_string oc "\n";
  close_out oc

let write_trace ~path = write_file ~path (trace_json ())
