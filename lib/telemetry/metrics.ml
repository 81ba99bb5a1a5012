type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of Histogram.t

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable rev_names : string list;
}

let create () = { tbl = Hashtbl.create 32; rev_names = [] }

let register t name metric =
  Hashtbl.add t.tbl name metric;
  t.rev_names <- name :: t.rev_names;
  metric

let kind_label = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let lookup t name make wanted =
  let m =
    match Hashtbl.find_opt t.tbl name with
    | Some m -> m
    | None -> register t name (make ())
  in
  match m with
  | m when kind_label m = wanted -> m
  | m ->
    invalid_arg
      (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_label m)
         wanted)

let counter t name =
  match lookup t name (fun () -> Counter { c_value = 0 }) "counter" with
  | Counter c -> c
  | _ -> assert false

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let set_counter c v = c.c_value <- v
let counter_value c = c.c_value

let gauge t name =
  match lookup t name (fun () -> Gauge { g_value = 0. }) "gauge" with
  | Gauge g -> g
  | _ -> assert false

let set_gauge g v = g.g_value <- v
let gauge_value g = g.g_value

let histogram ?buckets_per_octave t name =
  match
    lookup t name
      (fun () -> Hist (Histogram.create ?buckets_per_octave ()))
      "histogram"
  with
  | Hist h -> h
  | _ -> assert false

let names t = List.rev t.rev_names

type value = Counter_v of int | Gauge_v of float | Hist_v of Histogram.t

let value t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some (Counter c) -> Some (Counter_v c.c_value)
  | Some (Gauge g) -> Some (Gauge_v g.g_value)
  | Some (Hist h) -> Some (Hist_v h)

let merge ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find_opt src.tbl name with
      | None -> ()
      | Some (Counter c) -> incr ~by:c.c_value (counter into name)
      | Some (Gauge g) ->
        let dst = gauge into name in
        (* Gauges record levels (peaks, watermarks): max is the only
           merge that is order-independent and agrees with "the level
           the union of runs reached". *)
        set_gauge dst (Float.max (gauge_value dst) g.g_value)
      | Some (Hist h) ->
        let dst =
          histogram ~buckets_per_octave:(Histogram.buckets_per_octave h) into
            name
        in
        Histogram.merge_into ~into:dst h)
    (names src)

let hist_summary h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("mean", Json.Float (Histogram.mean h));
      ("p50", Json.Float (Histogram.percentile h 0.50));
      ("p90", Json.Float (Histogram.percentile h 0.90));
      ("p99", Json.Float (Histogram.percentile h 0.99));
      ("max", Json.Float (Histogram.max_value h));
    ]

let to_json t =
  let bucket wanted field =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt t.tbl name with
        | Some m when kind_label m = wanted -> Some (name, field m)
        | _ -> None)
      (names t)
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (bucket "counter" (function
            | Counter c -> Json.Int c.c_value
            | _ -> assert false)) );
      ( "gauges",
        Json.Obj
          (bucket "gauge" (function
            | Gauge g -> Json.Float g.g_value
            | _ -> assert false)) );
      ( "histograms",
        Json.Obj
          (bucket "histogram" (function
            | Hist h -> hist_summary h
            | _ -> assert false)) );
    ]
