open Vmm

type witness = {
  w_source : string;
  w_word_addr : Addr.t option;
  w_value : Addr.t;
}

type pinned = {
  p_base : Addr.t;
  p_pages : int;
  p_witness : witness;
}

type report = {
  freed_ranges : int;
  scanned_words : int;
  pinned : pinned list;
  reclaimed : (Addr.t * int) list;
  reclaimed_pages : int;
  pause_instructions : int;
}

type t = {
  pool : Shadow_pool.t;
  roots : Roots.t;
  va_pages_used : Telemetry.Metrics.gauge;
  va_pages_reclaimed : Telemetry.Metrics.gauge;
  gc_pinned_ranges : Telemetry.Metrics.gauge;
  pause_hist : Telemetry.Histogram.t;
  mutable runs : int;
  mutable total_reclaimed_pages : int;
  mutable total_scanned_words : int;
  mutable last_pinned : pinned list;
}

let metrics_registry machine = Stats.registry machine.Machine.stats

(* Zero-initialise the endurance gauges so exporters (danguard report,
   farm JSON) always carry them, GC traffic or not. *)
let register_metrics machine =
  let reg = metrics_registry machine in
  let used = Telemetry.Metrics.gauge reg "shadow.va_pages_used" in
  let pages = Machine.va_bytes_used machine / Addr.page_size in
  if Telemetry.Metrics.gauge_value used < float_of_int pages then
    Telemetry.Metrics.set_gauge used (float_of_int pages);
  ignore (Telemetry.Metrics.gauge reg "shadow.va_pages_reclaimed");
  ignore (Telemetry.Metrics.gauge reg "shadow.gc_pinned_ranges");
  ignore (Telemetry.Metrics.histogram reg "shadow.gc_pause_instructions")

(* Instructions the mark phase charges per word it examines. *)
let cost_per_word = 2

let create ~roots pool =
  let machine = Shadow_pool.machine pool in
  let reg = metrics_registry machine in
  register_metrics machine;
  {
    pool;
    roots;
    va_pages_used = Telemetry.Metrics.gauge reg "shadow.va_pages_used";
    va_pages_reclaimed = Telemetry.Metrics.gauge reg "shadow.va_pages_reclaimed";
    gc_pinned_ranges = Telemetry.Metrics.gauge reg "shadow.gc_pinned_ranges";
    pause_hist = Telemetry.Metrics.histogram reg "shadow.gc_pause_instructions";
    runs = 0;
    total_reclaimed_pages = 0;
    total_scanned_words = 0;
    last_pinned = [];
  }

(* Conservative membership: any word value landing anywhere inside a
   freed range — interior pointers included — counts as a reference to
   it.  [bases] and [ends] hold the sorted candidates' bounds; a value
   outside [first base, last end) is rejected before the binary search.
   Returns the range's index, or -1. *)
let find_range bases ends v =
  let n = Array.length bases in
  if n = 0 || v < bases.(0) || v >= ends.(n - 1) then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if v < bases.(mid) then hi := mid - 1
      else if v >= ends.(mid) then lo := mid + 1
      else begin
        found := mid;
        lo := !hi + 1
      end
    done;
    !found
  end

let run t =
  let machine = Shadow_pool.machine t.pool in
  let registry = Shadow_pool.registry t.pool in
  t.runs <- t.runs + 1;
  let freed = Array.of_list (Shadow_pool.freed_ranges t.pool) in
  let bases = Array.map fst freed in
  let ends = Array.map (fun (base, pages) -> base + Addr.of_page pages) freed in
  (* First witness per candidate.  A word that names no candidate, or
     one already witnessed, allocates nothing: the witness and its label
     are built only when recorded. *)
  let witnesses : witness option array = Array.make (Array.length freed) None in
  let unwitnessed v =
    let i = find_range bases ends v in
    if i >= 0 && Option.is_none witnesses.(i) then i else -1
  in
  let scanned = ref 0 in
  if freed <> [||] then begin
    (* Roots: registers, stack words, globals. *)
    scanned := Roots.word_count t.roots;
    Roots.iter_words t.roots (fun src v ->
        let i = unwitnessed v in
        if i >= 0 then
          witnesses.(i) <-
            Some
              { w_source = Roots.source_label src; w_word_addr = None;
                w_value = v });
    (* Heap words of every live object in the pool's registry.  The
       freed objects' own words need no scan: their pages are protected
       and their contents unreachable without first tripping a trap. *)
    Object_registry.iter_live registry (fun (o : Object_registry.obj) ->
        scanned :=
          !scanned
          + Roots.heap_word_count ~addr:o.Object_registry.user_addr
              ~bytes:o.Object_registry.size;
        Roots.iter_heap_words machine ~addr:o.Object_registry.user_addr
          ~bytes:o.Object_registry.size (fun word_addr v ->
            let i = unwitnessed v in
            if i >= 0 then
              witnesses.(i) <-
                Some
                  {
                    w_source =
                      Printf.sprintf "heap:%s#%d" o.Object_registry.alloc_site
                        o.Object_registry.id;
                    w_word_addr = Some word_addr;
                    w_value = v;
                  }))
  end;
  (* The scan is real work on the simulated machine: charge it. *)
  let pause = !scanned * cost_per_word in
  if pause > 0 then Stats.count_instructions machine.Machine.stats pause;
  let pinned, reclaimable =
    Array.to_list freed
    |> List.mapi (fun i (base, pages) ->
           match witnesses.(i) with
           | Some w ->
             Either.Left { p_base = base; p_pages = pages; p_witness = w }
           | None -> Either.Right (base, pages))
    |> List.partition_map Fun.id
  in
  let reclaimed_pages = Shadow_pool.reclaim_ranges t.pool reclaimable in
  (* A range whose merged unmap failed stays protected; report only what
     was actually released. *)
  let reclaimed =
    List.filter
      (fun (base, _) -> not (Shadow_pool.is_freed t.pool base))
      reclaimable
  in
  t.total_reclaimed_pages <- t.total_reclaimed_pages + reclaimed_pages;
  t.total_scanned_words <- t.total_scanned_words + !scanned;
  t.last_pinned <- pinned;
  Telemetry.Metrics.set_gauge t.va_pages_used
    (float_of_int (Machine.va_bytes_used machine / Addr.page_size));
  Telemetry.Metrics.set_gauge t.va_pages_reclaimed
    (float_of_int t.total_reclaimed_pages);
  Telemetry.Metrics.set_gauge t.gc_pinned_ranges
    (float_of_int (List.length pinned));
  Telemetry.Histogram.observe t.pause_hist (float_of_int pause);
  let report =
    {
      freed_ranges = Array.length freed;
      scanned_words = !scanned;
      pinned;
      reclaimed;
      reclaimed_pages;
      pause_instructions = pause;
    }
  in
  Telemetry.Sink.emit_always machine.Machine.trace (fun () ->
      Telemetry.Event.Gc_run
        {
          scanned_words = report.scanned_words;
          freed_ranges = report.freed_ranges;
          pinned = List.length report.pinned;
          reclaimed_pages = report.reclaimed_pages;
        });
  report

let runs t = t.runs
let total_reclaimed_pages t = t.total_reclaimed_pages
let total_scanned_words t = t.total_scanned_words
let last_pinned t = t.last_pinned
let pool t = t.pool
