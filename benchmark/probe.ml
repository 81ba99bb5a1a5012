(* Instrumentation applied from outside the system: the benchmark wraps
   the closures of a [Runtime.Scheme.t] it was handed, so every call the
   workload makes into the run-time is counted and timed without
   touching the program.  Spans are kept in memory and written
   as one Chrome trace when the run ends. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* [Malloc] and [Free] include pool allocations and frees; [Pool] is
   pool creation and destruction. *)
type layer = Malloc | Free | Load | Store | Pool | Fork

let layers = [ Malloc; Free; Load; Store; Pool; Fork ]

let layer_name = function
  | Malloc -> "malloc"
  | Free -> "free"
  | Load -> "load"
  | Store -> "store"
  | Pool -> "pool"
  | Fork -> "fork"

let index = function
  | Malloc -> 0
  | Free -> 1
  | Load -> 2
  | Store -> 3
  | Pool -> 4
  | Fork -> 5

(* Calls and host nanoseconds per layer, plus a wrapping sum of every
   loaded value — the workload's observable output.  One accumulator
   per domain: the farm's shards each get their own. *)
type acc = { calls : int array; ns : int array; mutable checksum : int }

let acc () = { calls = Array.make 6 0; ns = Array.make 6 0; checksum = 0 }

let add ~into a =
  Array.iteri (fun i c -> into.calls.(i) <- into.calls.(i) + c) a.calls;
  Array.iteri (fun i t -> into.ns.(i) <- into.ns.(i) + t) a.ns;
  into.checksum <- into.checksum + a.checksum

let copy a = { calls = Array.copy a.calls; ns = Array.copy a.ns; checksum = a.checksum }
let calls a l = a.calls.(index l)
let ns a l = a.ns.(index l)

(* Scheme-API operations: everything the workload asked of the
   run-time except building it. *)
let ops a = Array.fold_left ( + ) 0 a.calls - calls a Fork

let stop a k t0 =
  a.ns.(k) <- a.ns.(k) + (now () - t0);
  a.calls.(k) <- a.calls.(k) + 1

(* Every Scheme-API closure of [s], counted and timed with a clock read
   on either side; a call that raises (a detected violation) still
   counts.  Loaded values are summed into the checksum. *)
let wrap a (s : Runtime.Scheme.t) =
  let wrap_pool (h : Runtime.Scheme.pool_handle) =
    {
      Runtime.Scheme.pool_alloc =
        (fun ?site n ->
          let t0 = now () in
          match h.pool_alloc ?site n with
          | p -> stop a 0 t0; p
          | exception e -> stop a 0 t0; raise e);
      pool_free =
        (fun ?site p ->
          let t0 = now () in
          match h.pool_free ?site p with
          | () -> stop a 1 t0
          | exception e -> stop a 1 t0; raise e);
      pool_destroy =
        (fun () ->
          let t0 = now () in
          match h.pool_destroy () with
          | () -> stop a 4 t0
          | exception e -> stop a 4 t0; raise e);
    }
  in
  {
    s with
    malloc =
      (fun ?site n ->
        let t0 = now () in
        match s.malloc ?site n with
        | p -> stop a 0 t0; p
        | exception e -> stop a 0 t0; raise e);
    free =
      (fun ?site p ->
        let t0 = now () in
        match s.free ?site p with
        | () -> stop a 1 t0
        | exception e -> stop a 1 t0; raise e);
    load =
      (fun p ~width ->
        let t0 = now () in
        match s.load p ~width with
        | v ->
          stop a 2 t0;
          a.checksum <- a.checksum + v;
          v
        | exception e -> stop a 2 t0; raise e);
    store =
      (fun p ~width v ->
        let t0 = now () in
        match s.store p ~width v with
        | () -> stop a 3 t0
        | exception e -> stop a 3 t0; raise e);
    pool_create =
      (fun ?elem_size () ->
        let t0 = now () in
        match s.pool_create ?elem_size () with
        | h -> stop a 4 t0; wrap_pool h
        | exception e -> stop a 4 t0; raise e);
  }

(* Time [f] as a [Fork]: building a fresh machine and scheme. *)
let time_fork a f =
  let t0 = now () in
  let s = f () in
  stop a 5 t0;
  s

(* What one clock-read pair costs, to subtract from per-call times: the
   median of many back-to-back readings. *)
let timer_cost_ns () =
  let n = 2_001 in
  let d = Array.init n (fun _ -> let t0 = now () in now () - t0) in
  Array.sort compare d;
  d.(n / 2)

(* ---- spans ---- *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  tid : int;
  start_ns : int;
  dur_ns : int;
  args : (string * Telemetry.Json.t) list;
}

let spans : span list ref = ref []
let spans_lock = Mutex.create ()
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

let record ?(id = fresh_id ()) ?(parent = 0) ?(tid = 0) ~name ~start_ns
    ~stop_ns args =
  let s = { id; parent; name; tid; start_ns; dur_ns = stop_ns - start_ns; args } in
  Mutex.protect spans_lock (fun () -> spans := s :: !spans)

(* Per-layer calls and host time between two readings of an
   accumulator: a child span's arguments. *)
let layer_args ~before ~after =
  List.concat_map
    (fun l ->
      let c = calls after l - calls before l in
      if c = 0 then []
      else
        [
          (layer_name l ^ ".calls", Telemetry.Json.Int c);
          (layer_name l ^ ".ns", Telemetry.Json.Int (ns after l - ns before l));
        ])
    layers

let chrome_trace () =
  let spans = List.rev !spans in
  let origin = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let open Telemetry.Json in
  let us ns = Float (float_of_int ns /. 1e3) in
  Obj
    [
      ( "traceEvents",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("name", String s.name);
                   ("cat", String "benchmark");
                   ("ph", String "X");
                   ("ts", us (s.start_ns - origin));
                   ("dur", us s.dur_ns);
                   ("pid", Int 1);
                   ("tid", Int s.tid);
                   ( "args",
                     Obj (("id", Int s.id) :: ("parent", Int s.parent) :: s.args) );
                 ])
             spans) );
      ("displayTimeUnit", String "ns");
    ]
