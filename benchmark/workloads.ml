(* The four workloads, each a fixed pass of work per scheme spec driven
   only through the system's public entry points.  A pass is split into
   sample units (one Olden/utility pass, one farm batch, one chunk of
   requests), each timed on the host clock and priced on the simulated
   clock.

   Every workload runs three ways:
   - [Count]: the untimed warm-up pass.  Scheme calls go through the
     counting wrapper ([Probe.wrap]), and everything simulated is
     harvested: cycles per unit and per response, the cycle ledger, VMM
     counters, scheme internals.  Later passes must reproduce its cycles
     exactly.
   - [Raw]: the measured pass, calling the schemes unwrapped.  Only its
     cycles are kept.
   - [Traced]: the measured pass with a clock read around every call
     into the run-time, plus spans.  It harvests everything [Count]
     does, so a traced run can show tracing left the simulation alone. *)

type mode = Count | Raw | Traced

type spec = { key : string; spec : Runtime.Scheme_spec.t }

let specs =
  Runtime.Scheme_spec.
    [
      { key = "base"; spec = llvm_base };
      { key = "ours"; spec = ours };
      { key = "epoch"; spec = ours_epoch };
      { key = "tagged"; spec = tagged };
    ]

let detects s = Runtime.Scheme_spec.detects s.spec

(* ---- failures, counted against attempts ---- *)

let attempted = ref 0
let failed = ref 0
let failure_notes = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if List.length !failure_notes < 20 then failure_notes := msg :: !failure_notes)
    fmt

(* ---- simulated results of the warm-up pass ---- *)

type scheme_stats = {
  mutable epoch : Runtime.Schemes.epoch_stats option;
  mutable tag : Tagging.Tag_table.stats option;
  mutable gc_runs : int;
  mutable gc_reclaimed_pages : int;
}

type sim = {
  unit_cycles : float array;  (** simulated cycles per sample unit *)
  unit_ops : int array;  (** Scheme-API calls per sample unit *)
  resp : float array;  (** cycles per program, connection or request *)
  cycles : float;
  ledger : Ledger.t;
  programs : (string * Ledger.t) list;  (** per program, batch workloads only *)
  stats : Vmm.Stats.snapshot;  (** summed over every machine *)
  app : Probe.acc;  (** Scheme-API call counts and load checksum *)
  peak_va : int;  (** bytes; the largest single machine's *)
  internals : scheme_stats;
  shard_busy : float array;  (** simulated busy cycles per farm shard *)
  crash_reports : int;
  crash_signatures : int;
}

type pass = {
  unit_ns : int array;  (** host time per sample unit *)
  cycles_seen : float array;  (** simulated cycles per unit, to verify *)
  sim : sim option;  (** [Count] and [Traced] passes *)
  ticks : int;  (** endurance ticks timed ([Traced] long-lived only) *)
  tick_ns : int;
}

let sum_epoch (a : Runtime.Schemes.epoch_stats) (b : Runtime.Schemes.epoch_stats) =
  Runtime.Schemes.
    {
      epochs_retired = a.epochs_retired + b.epochs_retired;
      epoch_retired_frees = a.epoch_retired_frees + b.epoch_retired_frees;
      epoch_pending_frees = a.epoch_pending_frees + b.epoch_pending_frees;
      coalesced_protects = a.coalesced_protects + b.coalesced_protects;
      epoch_split_retries = a.epoch_split_retries + b.epoch_split_retries;
      epoch_failed_protects = a.epoch_failed_protects + b.epoch_failed_protects;
      backstop_hits = a.backstop_hits + b.backstop_hits;
      slab_calls = a.slab_calls + b.slab_calls;
      slab_hits = a.slab_hits + b.slab_hits;
      slab_misses = a.slab_misses + b.slab_misses;
    }

let sum_tag (a : Tagging.Tag_table.stats) (b : Tagging.Tag_table.stats) =
  Tagging.Tag_table.
    {
      tag_checks = a.tag_checks + b.tag_checks;
      tag_faults = a.tag_faults + b.tag_faults;
      generation_wraps = a.generation_wraps + b.generation_wraps;
      wrap_masked_passes = a.wrap_masked_passes + b.wrap_masked_passes;
      table_bytes = a.table_bytes + b.table_bytes;
      live_chunks = a.live_chunks + b.live_chunks;
    }

let merge_opt f a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (f a b)

(* Everything simulated one finished machine contributes. *)
type harvest = {
  mutable h_cycles : float;
  mutable h_ledger : Ledger.t;
  mutable h_stats : Vmm.Stats.snapshot;
  mutable h_peak_va : int;
  h_internals : scheme_stats;
}

let harvest () =
  {
    h_cycles = 0.;
    h_ledger = Ledger.zero;
    h_stats = Vmm.Stats.zero;
    h_peak_va = 0;
    h_internals = { epoch = None; tag = None; gc_runs = 0; gc_reclaimed_pages = 0 };
  }

(* Returns the machine's cycles and its ledger. *)
let collect h (scheme : Runtime.Scheme.t) =
  let m = scheme.machine in
  let snap = Vmm.Stats.snapshot m.Vmm.Machine.stats in
  let cycles = Vmm.Machine.cycles m in
  let ledger = Ledger.of_snapshot m.Vmm.Machine.cost snap in
  h.h_cycles <- h.h_cycles +. cycles;
  h.h_ledger <- Ledger.add h.h_ledger ledger;
  h.h_stats <- Vmm.Stats.sum h.h_stats snap;
  h.h_peak_va <- max h.h_peak_va (Vmm.Machine.va_bytes_used m);
  let i = h.h_internals in
  (match Runtime.Schemes.introspect scheme with
   | Runtime.Schemes.Shadow_pool_epoch { epoch; _ } ->
     i.epoch <- merge_opt sum_epoch i.epoch (Some (epoch ()))
   | Runtime.Schemes.Tagged { table; _ } ->
     i.tag <- merge_opt sum_tag i.tag (Some (Tagging.Tag_table.stats table))
   | _ -> ());
  (cycles, ledger)

let merge_harvest ~into h =
  into.h_cycles <- into.h_cycles +. h.h_cycles;
  into.h_ledger <- Ledger.add into.h_ledger h.h_ledger;
  into.h_stats <- Vmm.Stats.sum into.h_stats h.h_stats;
  into.h_peak_va <- max into.h_peak_va h.h_peak_va;
  let a = into.h_internals and b = h.h_internals in
  a.epoch <- merge_opt sum_epoch a.epoch b.epoch;
  a.tag <- merge_opt sum_tag a.tag b.tag;
  a.gc_runs <- a.gc_runs + b.gc_runs;
  a.gc_reclaimed_pages <- a.gc_reclaimed_pages + b.gc_reclaimed_pages

let sim_of ~unit_cycles ~unit_ops ~resp ~app ?(programs = []) ?(shard_busy = [||])
    ?(crash_reports = 0) ?(crash_signatures = 0) h =
  {
    unit_cycles;
    unit_ops;
    resp;
    cycles = h.h_cycles;
    ledger = h.h_ledger;
    programs;
    stats = h.h_stats;
    app;
    peak_va = h.h_peak_va;
    internals = h.h_internals;
    shard_busy;
    crash_reports;
    crash_signatures;
  }

let wrap mode acc scheme = if mode = Raw then scheme else Probe.wrap acc scheme

let build mode acc f = if mode = Raw then f () else Probe.time_fork acc f

(* A probe outcome under [spec]: detecting specs must raise, the
   reference spec must not. *)
let judge_probe spec ~what outcome =
  incr attempted;
  match (outcome, detects spec) with
  | `Detected, true | `Passed, false -> ()
  | `Passed, true -> fail "%s: %s probe went undetected" spec.key what
  | `Detected, false -> fail "%s: %s probe raised under a non-detecting spec" spec.key what

let masked_passes scheme =
  match Runtime.Schemes.introspect scheme with
  | Runtime.Schemes.Tagged { table; _ } ->
    (Tagging.Tag_table.stats table).wrap_masked_passes
  | _ -> 0

(* A dangling load through [s] (the possibly wrapped [scheme]).  A stale
   tag whose generation distance is a multiple of 2^tag_bits passes the
   masked check; the tag table counts that pass, so it is the backend's
   documented bound, not a miss. *)
let probe_load scheme (s : Runtime.Scheme.t) addr =
  let masked = masked_passes scheme in
  match s.load addr ~width:8 with
  | (_ : int) -> if masked_passes scheme > masked then `Detected else `Passed
  | exception Shadow.Report.Violation _ -> `Detected
  | exception Vmm.Fault.Trap _ -> `Detected

(* ---- batch workloads: Olden and utility kernels ---- *)

(* One unit per pass: every program once, each on a fresh machine, at
   the kernel's default scale (an eighth of it in smoke runs). *)
let batch_runner ~name ~programs ~smoke mode spec (accs : Probe.acc array) =
  let acc = accs.(0) in
  let h = harvest () in
  let ops0 = Probe.ops acc in
  let resp = ref [] and ledgers = ref [] in
  let parent = Probe.fresh_id () in
  let t0 = Probe.now () in
  List.iter
    (fun (b : Workload.Spec.batch) ->
      incr attempted;
      let scale = if smoke then max 1 (b.default_scale / 8) else b.default_scale in
      let scheme =
        build mode acc (fun () ->
            Harness.Experiment.make_scheme spec.spec ~pa_quality_gain:b.pa_quality_gain ())
      in
      let before = if mode = Traced then Probe.copy acc else acc in
      let p0 = Probe.now () in
      (match b.run (wrap mode acc scheme) ~scale with
       | () -> ()
       | exception e -> fail "%s/%s: %s raised %s" name spec.key b.name (Printexc.to_string e));
      if mode = Traced then
        Probe.record ~parent ~name:(spec.key ^ "/" ^ b.name) ~start_ns:p0
          ~stop_ns:(Probe.now ()) (Probe.layer_args ~before ~after:acc);
      if mode = Raw then h.h_cycles <- h.h_cycles +. Vmm.Machine.cycles scheme.machine
      else begin
        let cycles, ledger = collect h scheme in
        resp := cycles :: !resp;
        ledgers := (b.name, ledger) :: !ledgers
      end)
    programs;
  let t1 = Probe.now () in
  if mode = Traced then
    Probe.record ~id:parent ~name:(Printf.sprintf "%s/%s/pass" name spec.key) ~start_ns:t0
      ~stop_ns:t1 [];
  {
    unit_ns = [| t1 - t0 |];
    cycles_seen = [| h.h_cycles |];
    sim =
      (if mode = Raw then None
       else
         Some
           (sim_of ~unit_cycles:[| h.h_cycles |]
              ~unit_ops:[| Probe.ops acc - ops0 |]
              ~resp:(Array.of_list (List.rev !resp)) ~app:acc
              ~programs:(List.rev !ledgers) h));
    ticks = 0;
    tick_ns = 0;
  }

let find_batches names =
  List.map
    (fun n ->
      match Workload.Catalog.find_batch n with
      | Some b -> b
      | None -> invalid_arg ("unknown kernel " ^ n))
    names

(* ---- servers: the fork-per-connection farm ---- *)

let probe_every = 64

type servers_config = { connections : int; batch : int; shards : int }

(* The shard serving the connection in flight on this domain, so the
   handler finds the accumulator [make_scheme] used. *)
let shard_key = Domain.DLS.new_key (fun () -> 0)

(* One unit per batch of connections, each batch one [Farm.run] over
   [shards] domains.  Connection [g] of the pass is served by daemon
   [daemons.(g)] with index [g]; the farm probes every 64th. *)
let servers_runner ~daemons ~cfg ~seed mode spec (accs : Probe.acc array) =
  let shards = cfg.shards in
  let servers = Array.of_list Workload.Servers.all in
  let batches = cfg.connections / cfg.batch in
  let total = harvest () in
  let shard_h = Array.init shards (fun _ -> harvest ()) in
  let last = Array.make shards None in
  let resp = Array.make shards [] in
  let finish shard =
    match last.(shard) with
    | None -> ()
    | Some s ->
      resp.(shard) <- fst (collect shard_h.(shard) s) :: resp.(shard);
      last.(shard) <- None
  in
  let shard_busy = Array.make shards 0. in
  let reports = ref 0 and signatures = ref 0 in
  let unit_ns = Array.make batches 0 in
  let unit_cycles = Array.make batches 0. in
  let unit_ops = Array.make batches 0 in
  let ops () = Array.fold_left (fun n a -> n + Probe.ops a) 0 accs in
  for k = 0 to batches - 1 do
    let offset = k * cfg.batch in
    let parent = Probe.fresh_id () in
    let handler c scheme =
      let g = offset + c in
      let serve () = servers.(daemons.(g)).Workload.Spec.handler g scheme in
      if mode = Traced && c mod probe_every = 0 then begin
        let shard = Domain.DLS.get shard_key in
        let acc = accs.(shard) in
        let before = Probe.copy acc and t0 = Probe.now () in
        Fun.protect serve ~finally:(fun () ->
            Probe.record ~parent ~tid:shard
              ~name:(Printf.sprintf "%s/conn%d" spec.key g) ~start_ns:t0
              ~stop_ns:(Probe.now ()) (Probe.layer_args ~before ~after:acc))
      end
      else serve ()
    in
    let make_scheme ~shard ~trace () =
      let acc = accs.(shard) in
      Domain.DLS.set shard_key shard;
      if mode <> Raw then finish shard;
      let s =
        build mode acc (fun () -> Harness.Experiment.make_scheme spec.spec ~trace ())
      in
      if mode <> Raw then last.(shard) <- Some s;
      wrap mode acc s
    in
    let ops0 = ops () in
    incr attempted;
    let t0 = Probe.now () in
    (match
       Danguard_farm.Farm.run ~seed ~probe_every ~make_scheme ~handler ~shards
         ~connections:cfg.batch ()
     with
     | r ->
       let t1 = Probe.now () in
       unit_ns.(k) <- t1 - t0;
       if mode = Traced then
         Probe.record ~id:parent
           ~name:(Printf.sprintf "servers/%s/batch%d" spec.key k)
           ~start_ns:t0 ~stop_ns:t1 [];
       List.iter
         (fun (sr : Danguard_farm.Farm.shard_report) ->
           unit_cycles.(k) <- unit_cycles.(k) +. sr.busy_cycles;
           shard_busy.(sr.shard) <- shard_busy.(sr.shard) +. sr.busy_cycles)
         r.per_shard;
       reports := !reports + r.crashes.Fleet.Crash.total_reports;
       signatures := !signatures + List.length r.crashes.Fleet.Crash.entries;
       let probes = (cfg.batch + probe_every - 1) / probe_every in
       let detections = r.totals.Danguard_farm.Farm.detections in
       attempted := !attempted + cfg.batch - 1 + probes;
       let expected = if detects spec then probes else 0 in
       if detections <> expected then
         fail "servers/%s batch %d: %d detections for %d probes" spec.key k
           detections expected
     | exception e ->
       fail "servers/%s batch %d raised %s" spec.key k (Printexc.to_string e));
    unit_ops.(k) <- ops () - ops0;
    if mode <> Raw then Array.iteri (fun shard _ -> finish shard) last
  done;
  Array.iter (fun sh -> merge_harvest ~into:total sh) shard_h;
  {
    unit_ns;
    cycles_seen = unit_cycles;
    sim =
      (if mode <> Raw then begin
         let app = Probe.acc () in
         Array.iter (fun a -> Probe.add ~into:app a) accs;
         Some
           (sim_of ~unit_cycles ~unit_ops
              ~resp:(Array.of_list (List.concat (Array.to_list resp)))
              ~app ~shard_busy ~crash_reports:!reports
              ~crash_signatures:!signatures total)
       end
       else None);
    ticks = 0;
    tick_ns = 0;
  }

(* ---- long-lived: one process, heavy-tailed sessions, GC armed ---- *)

type long_config = { requests : int; startup : int; chunk : int }

let tick_every = 32
let probe_request_every = 128
let probe_slots = 4
let gc_trigger_pages = 1_024

(* The reuse policy and endurance controller exactly as a long-lived
   shadow-pool deployment arms them (§3.4): the real conservative GC
   over the global pool, the watermark escalation on a VA budget.  The
   budget is twice the startup population's pages, so the process runs
   at or above the GC watermark and every tick collects: GC pauses fall
   in one request in [tick_every], enough to reach the p99 response. *)
let arm_endurance ~va_budget_pages scheme roots =
  match Runtime.Schemes.introspect scheme with
  | Runtime.Schemes.Shadow_pool { global; _ }
  | Runtime.Schemes.Shadow_pool_epoch { global; _ } ->
    let gc = Shadow.Gc.create ~roots global in
    let policy =
      Shadow.Reuse_policy.create ~gc
        (Shadow.Reuse_policy.Conservative_gc
           { trigger_pages = gc_trigger_pages; scan_cost_per_object = 2 })
        global
    in
    Shadow.Reuse_policy.attach policy;
    let budget =
      Shadow.Va_budget.create ~budget_pages:va_budget_pages scheme.Runtime.Scheme.machine
    in
    Some (Runtime.Endurance.create ~policy ~budget gc, gc)
  | _ -> None

let stored_value r k = (((r * Inputs.stores_per_request) + k) land 0xff_ffff) + 1

let long_lived_runner ~(script : Inputs.long_lived) ~chunk mode spec
    (accs : Probe.acc array) =
  let acc = accs.(0) in
  let n_objects = Array.length script.sizes in
  let scheme =
    build mode acc (fun () -> Harness.Experiment.make_scheme spec.spec ())
  in
  let s = wrap mode acc scheme in
  let machine = scheme.machine in
  let roots = Vmm.Roots.create () in
  let endurance = arm_endurance ~va_budget_pages:(2 * script.startup) scheme roots in
  let addr = Array.make n_objects 0 in
  let expect = Array.make n_objects [||] in
  let planted = Array.make probe_slots 0 in
  let next_slot = ref 0 in
  let units = (script.requests + chunk - 1) / chunk in
  let unit_ns = Array.make units 0 in
  let unit_cycles = Array.make units 0. in
  let unit_ops = Array.make units 0 in
  let resp = if mode <> Raw then Array.make script.requests 0. else [||] in
  let ticks = ref 0 and tick_ns = ref 0 in
  let alloc id =
    addr.(id) <- s.malloc ~site:"session" script.sizes.(id);
    expect.(id) <- Array.make (script.sizes.(id) / 8) (-1)
  in
  let tick () =
    match endurance with
    | None -> ()
    | Some (e, _) ->
      let t0 = Probe.now () in
      ignore (Runtime.Endurance.tick e : Shadow.Gc.report option);
      incr ticks;
      tick_ns := !tick_ns + (Probe.now () - t0)
  in
  let request r =
    let c0 = Vmm.Machine.cycles machine in
    let first = script.startup + (Inputs.allocs_per_request * r) in
    for id = first to first + Inputs.allocs_per_request - 1 do
      alloc id
    done;
    let base = r * Inputs.accesses_per_request in
    for k = 0 to Inputs.accesses_per_request - 1 do
      let a = script.accesses.(base + k) in
      let id = a lsr Inputs.word_bits and word = a land ((1 lsl Inputs.word_bits) - 1) in
      let p = addr.(id) + (8 * word) in
      if k < Inputs.loads_per_request then begin
        let v = s.load p ~width:8 in
        let want = expect.(id).(word) in
        if want >= 0 && v <> want then
          fail "long-lived/%s request %d: loaded %d, stored %d" spec.key r v want
      end
      else begin
        let v = stored_value r (k - Inputs.loads_per_request) in
        s.store p ~width:8 v;
        expect.(id).(word) <- v
      end
    done;
    let dying = script.dying.(r) in
    let probed = r mod probe_request_every = probe_request_every - 1 && dying <> [||] in
    (* The probe's pointer goes into a simulated root before its object
       dies, so the GC must witness it and keep the range trapping. *)
    if probed then begin
      let slot = !next_slot in
      next_slot := (slot + 1) mod probe_slots;
      planted.(slot) <- addr.(dying.(0));
      Vmm.Roots.set_global roots ~slot planted.(slot)
    end;
    Array.iter
      (fun id ->
        s.free ~site:"session-done" addr.(id);
        expect.(id) <- [||])
      dying;
    if probed then judge_probe spec ~what:"freed-session" (probe_load scheme s addr.(dying.(0)));
    if r mod tick_every = tick_every - 1 then begin
      tick ();
      (* Every planted pointer must still trap however many GC cycles
         ran since it was planted. *)
      Array.iter
        (fun p -> if p <> 0 then judge_probe spec ~what:"rooted" (probe_load scheme s p))
        planted
    end;
    if mode <> Raw then resp.(r) <- Vmm.Machine.cycles machine -. c0
  in
  let unit_start = ref (Probe.now ()) and unit_c0 = ref 0. and unit_o0 = ref 0 in
  let parent = ref (Probe.fresh_id ()) in
  let close_unit u =
    let t = Probe.now () in
    unit_ns.(u) <- t - !unit_start;
    let c = Vmm.Machine.cycles machine in
    unit_cycles.(u) <- c -. !unit_c0;
    unit_ops.(u) <- Probe.ops acc - !unit_o0;
    if mode = Traced then
      Probe.record ~id:!parent
        ~name:(Printf.sprintf "long-lived/%s/chunk%d" spec.key u)
        ~start_ns:!unit_start ~stop_ns:t [];
    parent := Probe.fresh_id ();
    unit_start := Probe.now ();
    unit_c0 := c;
    unit_o0 := Probe.ops acc
  in
  (match
     for id = 0 to script.startup - 1 do
       alloc id
     done;
     for r = 0 to script.requests - 1 do
       incr attempted;
       if mode = Traced && r mod probe_every = 0 then begin
         let before = Probe.copy acc and t0 = Probe.now () in
         request r;
         Probe.record ~parent:!parent ~name:(Printf.sprintf "%s/req%d" spec.key r)
           ~start_ns:t0 ~stop_ns:(Probe.now ()) (Probe.layer_args ~before ~after:acc)
       end
       else request r;
       if (r + 1) mod chunk = 0 || r = script.requests - 1 then close_unit (r / chunk)
     done
   with
   | () -> ()
   | exception e -> fail "long-lived/%s raised %s" spec.key (Printexc.to_string e));
  let sim =
    if mode = Raw then None
    else begin
      let h = harvest () in
      ignore (collect h scheme : float * Ledger.t);
      (match endurance with
       | Some (_, gc) ->
         h.h_internals.gc_runs <- Shadow.Gc.runs gc;
         h.h_internals.gc_reclaimed_pages <- Shadow.Gc.total_reclaimed_pages gc
       | None -> ());
      Some (sim_of ~unit_cycles ~unit_ops ~resp ~app:acc h)
    end
  in
  { unit_ns; cycles_seen = unit_cycles; sim; ticks = !ticks; tick_ns = !tick_ns }

(* ---- the catalogue ---- *)

type runner = mode -> spec -> Probe.acc array -> pass

type t = {
  name : string;
  prepare : seed:int -> smoke:bool -> shards:int -> runner;
      (** generate the inputs (the timed part of set-up) *)
  farm : bool;  (** runs on [shards] domains *)
  per_program : bool;
      (** overhead is the geomean of per-program ratios (the Table 1/3
          convention) rather than the ratio of total cycles *)
}

let batch name programs =
  {
    name;
    prepare =
      (fun ~seed:_ ~smoke ~shards:_ ->
        batch_runner ~name ~programs:(find_batches programs) ~smoke);
    farm = false;
    per_program = true;
  }

(* Why these four (BENCHMARK.json and README.md give the measured
   split): [servers] is the paper's target, host time dominated by
   per-connection machine creation; [olden-alloc] stresses the
   protection syscalls, 76% of ours' cycles there; [access-heavy] runs
   mostly the per-access path (91% of ours' cycles are work), though
   syscalls still make most of ours' small overhead there; [long-lived]
   is the only one where VA reuse, the conservative GC and tag tables
   matter. *)
let all =
  [
    {
      name = "servers";
      prepare =
        (fun ~seed ~smoke ~shards ->
          let cfg =
            if smoke then { connections = 64; batch = 64; shards }
            else { connections = 1_024; batch = 256; shards }
          in
          let daemons = Inputs.servers ~seed ~connections:cfg.connections in
          servers_runner ~daemons ~cfg ~seed);
      farm = true;
      per_program = false;
    };
    batch "olden-alloc" [ "bh"; "bisort"; "health"; "mst"; "perimeter"; "treeadd" ];
    batch "access-heavy" [ "enscript"; "jwhois"; "patch"; "gzip"; "em3d"; "power"; "tsp" ];
    {
      name = "long-lived";
      prepare =
        (fun ~seed ~smoke ~shards:_ ->
          let cfg =
            if smoke then { requests = 512; startup = 256; chunk = 256 }
            else { requests = 2_048; startup = 3_072; chunk = 512 }
          in
          let script =
            Inputs.long_lived ~seed ~requests:cfg.requests ~startup:cfg.startup
          in
          long_lived_runner ~script ~chunk:cfg.chunk);
      farm = false;
      per_program = false;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
