let event_to_json (e : Event.t) =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("cycles", Json.Float e.at);
       ("type", Json.String (Event.name e.kind));
       ("cat", Json.String (Event.category e.kind));
     ]
    @ Event.args e.kind)

let to_jsonl events =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let cycles_per_us = 1000.

let chrome_event ~pid ~tid (e : Event.t) =
  Json.Obj
    [
      ("name", Json.String (Event.name e.kind));
      ("cat", Json.String (Event.category e.kind));
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("ts", Json.Float (e.at /. cycles_per_us));
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj (Event.args e.kind));
    ]

let chrome_trace ?(pid = 1) ?(tid = 1) events =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map (chrome_event ~pid ~tid) events));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_chrome_string ?pid ?tid events =
  Json.to_string (chrome_trace ?pid ?tid events)

(* Farm traces: one (pid, tid, events) group per shard so the viewer
   renders one lane per shard instead of piling every domain's events
   onto pid 1/tid 1.  A ["ph": "M"] process_name metadata record per
   distinct pid gives the lanes their labels. *)
let chrome_trace_grouped ?(name_of_pid = Printf.sprintf "shard %d") groups =
  let pids = List.sort_uniq compare (List.map (fun (pid, _, _) -> pid) groups) in
  let meta =
    List.map
      (fun pid ->
        Json.Obj
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("name", Json.String (name_of_pid pid)) ]);
          ])
      pids
  in
  let events =
    List.concat_map
      (fun (pid, tid, events) -> List.map (chrome_event ~pid ~tid) events)
      groups
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_chrome_string_grouped ?name_of_pid groups =
  Json.to_string (chrome_trace_grouped ?name_of_pid groups)

(* Prometheus text exposition.  Registry names may carry a label block
   verbatim — [fleet.crash_total{signature="...",kind="..."}] — which
   passes through untouched; only the base name is sanitised to the
   [a-zA-Z_:][a-zA-Z0-9_:]* grammar. *)
let prom_sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  match mapped.[0] with
  | '0' .. '9' -> "_" ^ mapped
  | _ -> mapped
  | exception Invalid_argument _ -> "_"

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* Derived metrics: ratios computed from the registry's raw counters at
   export time, so readers of `danguard report` and BENCH_results.json
   do not divide two counters by hand.  Telemetry knows nothing of the
   vmm layer, so the inputs are addressed purely by counter name; a
   registry without them (or with no allocator traffic) simply derives
   nothing. *)
let derived_metrics metrics =
  let c = Metrics.count metrics in
  let protection =
    c "vmm.syscalls_mremap" + c "vmm.syscalls_mprotect" + c "vmm.syscalls_munmap"
  in
  let ops = c "vmm.alloc_ops" + c "vmm.free_ops" in
  if ops = 0 then []
  else
    [ ("vmm.syscalls_per_op", float_of_int protection /. float_of_int ops) ]

let derived_to_json metrics =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (derived_metrics metrics))

let to_prometheus metrics =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line base kind =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.replace typed base ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  (* Splice extra labels (e.g. quantile) into an existing label block. *)
  let with_label labels extra =
    match labels with
    | "" -> "{" ^ extra ^ "}"
    | l -> String.sub l 0 (String.length l - 1) ^ "," ^ extra ^ "}"
  in
  List.iter
    (fun name ->
      let base, labels =
        match String.index_opt name '{' with
        | Some i ->
          ( prom_sanitize (String.sub name 0 i),
            String.sub name i (String.length name - i) )
        | None -> (prom_sanitize name, "")
      in
      match Metrics.value metrics name with
      | None -> ()
      | Some (Metrics.Counter_v v) ->
        let base =
          if
            String.length base >= 6
            && String.sub base (String.length base - 6) 6 = "_total"
          then base
          else base ^ "_total"
        in
        type_line base "counter";
        Buffer.add_string buf (Printf.sprintf "%s%s %d\n" base labels v)
      | Some (Metrics.Gauge_v v) ->
        type_line base "gauge";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" base labels (prom_float v))
      | Some (Metrics.Hist_v h) ->
        type_line base "summary";
        List.iter
          (fun q ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" base
                 (with_label labels (Printf.sprintf "quantile=\"%g\"" q))
                 (prom_float (Histogram.percentile h q))))
          [ 0.5; 0.9; 0.99 ];
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" base labels
             (prom_float
                (Histogram.mean h *. float_of_int (Histogram.count h))));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" base labels (Histogram.count h)))
    (Metrics.names metrics);
  List.iter
    (fun (name, v) ->
      let base = prom_sanitize name in
      type_line base "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" base (prom_float v)))
    (derived_metrics metrics);
  Buffer.contents buf

let to_text events =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" Event.pp e))
    events;
  Buffer.contents buf
