(* One benchmark run of one workload: set-up (input generation plus the
   counting warm-up, three times), then measured passes until the time
   budget is spent, then every metric.  End-to-end metrics come from an
   untraced run; per-layer metrics from a traced one, whose rounds
   alternate between untraced and traced passes so the tracing overhead
   is measured in the same process.  A traced run takes its simulated
   metrics from its first traced pass of each spec, an untraced run from
   the warm-up. *)

module W = Workloads

type clock = Sim | Host

type value = {
  v : float;
  unit_ : string;
  clock : clock;
  spread : (float * float * int) option;  (** quartiles and sample count *)
  level : (float * int) option;  (** a tail's percentile and sample count *)
}

type result = {
  workload : string;
  seed : int;
  traced : bool;
  shards : int;
  attempted : int;
  failed : int;
  notes : string list;
  metrics : (string * value) list;
      (** end-to-end metrics untraced, per-layer metrics traced *)
  simulated : (string * float) list;
      (** every simulated-clock metric, end-to-end and per-layer: must
          be identical between a traced and an untraced run *)
  calls : (string * int) list;
      (** traced calls behind each [runtime.*] time *)
  programs : (string * float) list;
      (** batch workloads: each program's overhead and where its cycles
          go, [<program>.<quantity>.<spec>] *)
}

let mib = 1048576.
let keys = List.map (fun (s : W.spec) -> s.key) W.specs
let spec_of key = List.find (fun (s : W.spec) -> s.key = key) W.specs

(* Host samples of one spec over the measured passes. *)
type host = {
  mutable mops : float list;  (** one per measured pass *)
  mutable pass_ns : int list;
  mutable minor_gcs : float;
  mutable promoted_words : float;
  mutable gc_ops : int;
  traced_acc : Probe.acc array;
  mutable traced_mops : float list;
  mutable traced_sim : W.sim option;  (** the first traced pass's *)
  mutable ticks : int;
  mutable tick_ns : int;
}

(* Everything simulated two passes produced, apart from the host time
   inside the counting wrapper. *)
let same_sim (a : W.sim) (b : W.sim) =
  { a with app = b.app } = b && a.app.checksum = b.app.checksum && a.app.calls = b.app.calls

let setup (w : W.t) ~seed ~smoke ~shards =
  let t0 = Probe.now () in
  let runner = w.prepare ~seed ~smoke ~shards in
  let sims =
    List.map
      (fun (spec : W.spec) ->
        let accs = Array.init shards (fun _ -> Probe.acc ()) in
        match (runner W.Count spec accs).sim with
        | Some sim -> (spec.key, sim)
        | None -> assert false)
      W.specs
  in
  (runner, sims, float_of_int (Probe.now () - t0) /. 1e9)

(* Output checks on the warm-up: every spec issued exactly the same
   Scheme-API calls (the same program ran), and the recomputed ledger
   accounts for every simulated cycle. *)
let check_sims name sims =
  let base : W.sim = List.assoc "base" sims in
  List.iter
    (fun (key, (sim : W.sim)) ->
      if sim.app.calls <> base.app.calls then
        W.fail "%s/%s: Scheme-API calls differ from base" name key;
      if not (Ledger.agrees sim.ledger ~cycles:sim.cycles) then
        W.fail "%s/%s: ledger %.17g <> cycles %.17g" name key
          (Ledger.total sim.ledger) sim.cycles)
    sims

let mops ops ns = float_of_int ops *. 1e3 /. float_of_int (max 1 ns)

(* Host time each spec gets per round, in passes of its own length. *)
let slice_ns = 250_000_000

let measure_passes ~(w : W.t) ~runner ~sims ~seconds ~traced ~smoke ~shards =
  let hosts =
    List.map
      (fun key ->
        ( key,
          {
            mops = [];
            pass_ns = [];
            minor_gcs = 0.;
            promoted_words = 0.;
            gc_ops = 0;
            traced_acc = Array.init shards (fun _ -> Probe.acc ());
            traced_mops = [];
            traced_sim = None;
            ticks = 0;
            tick_ns = 0;
          } ))
      keys
  in
  let deadline = Probe.now () + int_of_float (seconds *. 1e9) in
  let min_rounds = if traced then 2 else 1 in
  let round = ref 0 in
  let pass_once mode (spec : W.spec) =
    let sim : W.sim = List.assoc spec.key sims in
    let h = List.assoc spec.key hosts in
    let accs = Array.init shards (fun _ -> Probe.acc ()) in
    let g0 = Gc.quick_stat () in
    let pass = runner mode spec accs in
    let g1 = Gc.quick_stat () in
    if pass.W.cycles_seen <> sim.unit_cycles then
      W.fail "%s/%s: measured pass simulated different cycles than the warm-up" w.name
        spec.key;
    let ops = Array.fold_left ( + ) 0 sim.unit_ops in
    let ns = Array.fold_left ( + ) 0 pass.unit_ns in
    if mode = W.Traced then begin
      (match pass.sim with
       | Some traced when same_sim traced sim ->
         if h.traced_sim = None then h.traced_sim <- Some traced
       | _ -> W.fail "%s/%s: traced pass simulated differently than the warm-up" w.name spec.key);
      Array.iter2 (fun into a -> Probe.add ~into a) h.traced_acc accs;
      h.traced_mops <- mops ops ns :: h.traced_mops;
      h.ticks <- h.ticks + pass.ticks;
      h.tick_ns <- h.tick_ns + pass.tick_ns
    end
    else begin
      h.mops <- mops ops ns :: h.mops;
      h.pass_ns <- ns :: h.pass_ns;
      h.minor_gcs <- h.minor_gcs +. float_of_int (g1.minor_collections - g0.minor_collections);
      h.promoted_words <- h.promoted_words +. (g1.promoted_words -. g0.promoted_words);
      h.gc_ops <- h.gc_ops + ops
    end
  in
  while !round < min_rounds || ((not smoke) && Probe.now () < deadline) do
    let mode = if traced && !round land 1 = 1 then W.Traced else W.Raw in
    let n = List.length W.specs in
    for i = 0 to n - 1 do
      (* Rotate which spec goes first so no spec always follows another,
         and give each spec the same host time per round: a fast spec's
         short passes repeat, so every spec sees the same stretch of
         machine noise. *)
      let spec = List.nth W.specs ((!round + i) mod n) in
      let t0 = Probe.now () in
      pass_once mode spec;
      while (not smoke) && Probe.now () - t0 < slice_ns do
        pass_once mode spec
      done
    done;
    incr round
  done;
  hosts

(* ---- host micro-timings of public VMM calls ---- *)

let per_call ~reps ~n f =
  Sample.median
    (List.init reps (fun _ ->
         let t0 = Probe.now () in
         for i = 1 to n do
           f i
         done;
         float_of_int (Probe.now () - t0) /. float_of_int n))

let vmm_micro ~smoke =
  let reps = 5 and n = if smoke then 2_000 else 100_000 in
  let m = Vmm.Machine.create () in
  let base = Vmm.Kernel.mmap m ~pages:128 in
  let page i = base + (Vmm.Addr.page_size * (i land 127)) in
  let load_hit = per_call ~reps ~n (fun _ -> ignore (Vmm.Mmu.load m base ~width:8)) in
  (* 128 pages over a 64-entry, 4-way TLB: every access misses. *)
  let load_miss = per_call ~reps ~n (fun i -> ignore (Vmm.Mmu.load m (page i) ~width:8)) in
  let store_hit = per_call ~reps ~n (fun i -> Vmm.Mmu.store m base ~width:8 i) in
  let n_sys = n / 20 in
  let mprotect =
    per_call ~reps ~n:n_sys (fun i ->
        Vmm.Kernel.mprotect m ~addr:base ~pages:64
          (if i land 1 = 0 then Vmm.Perm.Read_only else Vmm.Perm.Read_write))
  in
  let remap =
    per_call ~reps ~n:n_sys (fun _ -> ignore (Vmm.Kernel.mremap_alias m ~src:base ~pages:1))
  in
  let create = per_call ~reps ~n:n_sys (fun _ -> ignore (Vmm.Machine.create ())) in
  [
    ("vmm.load8_hit_ns", load_hit);
    ("vmm.load8_miss_ns", load_miss);
    ("vmm.store8_hit_ns", store_hit);
    ("vmm.mprotect64_ns", mprotect);
    ("vmm.mremap_alias_ns", remap);
    ("vmm.machine_create_us", create /. 1e3);
  ]

(* ---- the run ---- *)

let shards_for (w : W.t) =
  if w.farm then max 1 (min 2 (Domain.recommended_domain_count ())) else 1

let run (w : W.t) ~seed ~seconds ~traced ~smoke =
  W.attempted := 0;
  W.failed := 0;
  W.failure_notes := [];
  let shards = shards_for w in
  let setups = if smoke then 1 else 3 in
  let runner, sims, first = setup w ~seed ~smoke ~shards in
  check_sims w.name sims;
  let later =
    List.init (setups - 1) (fun _ ->
        let _, again, t = setup w ~seed ~smoke ~shards in
        List.iter2
          (fun (key, a) (_, b) ->
            if not (same_sim a b) then
              W.fail "%s/%s: repeated set-up produced different outputs" w.name key)
          sims again;
        t)
  in
  let setup_times = first :: later in
  let hosts = measure_passes ~w ~runner ~sims ~seconds ~traced ~smoke ~shards in
  let host key = List.assoc key hosts in
  let sim key : W.sim =
    match (host key).traced_sim with
    | Some s when traced -> s
    | _ -> List.assoc key sims
  in
  let all = ref [] in
  let add ?spread ?level ~e2e name unit_ clock v =
    all := (name, e2e, { v; unit_; clock; spread; level }) :: !all
  in
  let per_spec ?(only = keys) ~e2e name unit_ clock f =
    List.iter
      (fun k -> if List.mem k only then add ~e2e (name ^ "." ^ k) unit_ clock (f k))
      keys
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  (* ---- end to end ---- *)
  let overhead k =
    let s = sim k and b = sim "base" in
    if w.per_program then Sample.geomean (Array.to_list (Array.map2 ( /. ) s.resp b.resp))
    else s.cycles /. b.cycles
  in
  let resp = Array.to_list (sim "ours").resp in
  let n_resp = List.length resp in
  (* The tail is the highest level with ten responses beyond it: p99 on
     [servers] and [long-lived]; a batch workload's 6 or 7 programs leave
     no such level, so there it is the slowest program. *)
  let tail_level, tail =
    match Sample.tail_percentile resp with
    | Some t -> t
    | None -> (100., Sample.percentile 100. resp)
  in
  add ~e2e:true "setup_s" "s" Host (Sample.median setup_times);
  per_spec ~e2e:true ~only:[ "ours"; "epoch"; "tagged" ] "overhead" "ratio" Sim overhead;
  add ~e2e:true ~level:(50., n_resp) "resp_p50_mcycles" "Mcycles" Sim
    (Sample.percentile 50. resp /. 1e6);
  add ~e2e:true ~level:(tail_level, n_resp) "resp_p99_mcycles" "Mcycles" Sim (tail /. 1e6);
  per_spec ~e2e:true ~only:[ "ours"; "epoch" ] "peak_va_mib" "MiB" Sim (fun k ->
      float_of_int (sim k).peak_va /. mib);
  List.iter
    (fun k ->
      let xs = (host k).mops in
      let q1, q3 = Sample.quartiles xs in
      add ~e2e:true ~spread:(q1, q3, List.length xs) ("host_mops_per_s." ^ k) "Mops/s"
        Host (Sample.median xs))
    keys;
  (* ---- per layer, simulated: from the warm-up pass ---- *)
  let st k = (sim k).stats in
  per_spec ~e2e:false "vmm.prot_syscalls_per_op" "ratio" Sim (fun k ->
      Option.value (Vmm.Stats.syscalls_per_op (st k)) ~default:0.);
  per_spec ~e2e:false "vmm.tlb_miss_ratio" "ratio" Sim (fun k ->
      let s = st k in
      ratio (float_of_int s.tlb_misses) (float_of_int (s.tlb_hits + s.tlb_misses)));
  let app_accesses k =
    let a = (sim k).app in
    Probe.calls a Probe.Load + Probe.calls a Probe.Store
  in
  (* MMU accesses the workload did not issue: allocator metadata. *)
  per_spec ~e2e:false "vmm.meta_access_share" "ratio" Sim (fun k ->
      let s = st k in
      let mmu = s.loads + s.stores in
      ratio (float_of_int (mmu - app_accesses k)) (float_of_int mmu));
  let ledger k = (sim k).ledger in
  let share part k = Ledger.share (part (ledger k)) (ledger k) in
  per_spec ~e2e:false "cycles.work_share" "ratio" Sim (share (fun l -> l.work));
  per_spec ~e2e:false "cycles.tlb_share" "ratio" Sim (share (fun l -> l.tlb));
  per_spec ~e2e:false "cycles.syscall_share" "ratio" Sim (share (fun l -> l.syscall));
  per_spec ~e2e:false ~only:[ "ours"; "epoch" ] "cycles.fault_share" "ratio" Sim
    (share (fun l -> l.fault));
  (* Work cycles beyond base's on the same input: the software checks. *)
  per_spec ~e2e:false ~only:[ "epoch"; "tagged" ] "cycles.extra_work_share" "ratio" Sim
    (fun k -> ratio ((ledger k).work -. (ledger "base").work) (Ledger.total (ledger k)));
  let ep f = match (sim "epoch").internals.epoch with Some e -> f e | None -> 0. in
  let fi = float_of_int in
  add ~e2e:false "shadow.slab_hit_ratio" "ratio" Sim
    (ep (fun e -> ratio (fi e.slab_hits) (fi (e.slab_hits + e.slab_misses))));
  add ~e2e:false "shadow.frees_per_retire" "count" Sim
    (ep (fun e -> ratio (fi e.epoch_retired_frees) (fi e.epochs_retired)));
  add ~e2e:false "shadow.backstop_hits" "count" Sim (ep (fun e -> fi e.backstop_hits));
  let shadow = [ "ours"; "epoch" ] in
  per_spec ~e2e:false ~only:shadow "shadow.gc_runs" "count" Sim (fun k ->
      fi (sim k).internals.gc_runs);
  per_spec ~e2e:false ~only:shadow "shadow.gc_reclaimed_pages" "count" Sim (fun k ->
      fi (sim k).internals.gc_reclaimed_pages);
  let tag f = match (sim "tagged").internals.tag with Some t -> f t | None -> 0. in
  add ~e2e:false "tagging.checks_per_app_access" "ratio" Sim
    (tag (fun t -> ratio (fi t.tag_checks) (fi (app_accesses "tagged"))));
  add ~e2e:false "tagging.wraps" "count" Sim (tag (fun t -> fi t.generation_wraps));
  add ~e2e:false "tagging.table_bytes" "B" Sim (tag (fun t -> fi t.table_bytes));
  let busy = (sim "ours").shard_busy in
  add ~e2e:false "farm.shard_imbalance" "ratio" Sim
    (if Array.length busy = 0 then 0.
     else
       Array.fold_left Float.max 0. busy
       /. (Array.fold_left ( +. ) 0. busy /. fi (Array.length busy)));
  let fleet f = fi (List.fold_left (fun n k -> n + f (sim k)) 0 keys) in
  add ~e2e:false "fleet.reports" "count" Sim (fleet (fun s -> s.crash_reports));
  add ~e2e:false "fleet.signatures" "count" Sim (fleet (fun s -> s.crash_signatures));
  (* ---- per layer, host: only a traced run has these ---- *)
  if traced then begin
    let timer = fi (Probe.timer_cost_ns ()) in
    let net ns calls = if calls = 0 then 0. else Float.max 0. ((fi ns /. fi calls) -. timer) in
    let acc k =
      let a = Probe.acc () in
      Array.iter (fun x -> Probe.add ~into:a x) (host k).traced_acc;
      a
    in
    let call_ns k layer = let a = acc k in net (Probe.ns a layer) (Probe.calls a layer) in
    List.iter
      (fun (name, layer) -> per_spec ~e2e:false name "ns" Host (fun k -> call_ns k layer))
      Probe.
        [
          ("runtime.malloc_ns", Malloc);
          ("runtime.free_ns", Free);
          ("runtime.load_ns", Load);
          ("runtime.store_ns", Store);
          ("runtime.pool_ns", Pool);
        ];
    per_spec ~e2e:false "runtime.fork_us" "us" Host (fun k -> call_ns k Probe.Fork /. 1e3);
    List.iter
      (fun (name, v) ->
        add ~e2e:false name (if String.ends_with ~suffix:"_us" name then "us" else "ns") Host v)
      (vmm_micro ~smoke);
    per_spec ~e2e:false ~only:shadow "shadow.gc_tick_us" "us" Host (fun k ->
        let h = host k in
        net h.tick_ns h.ticks /. 1e3);
    (* One ours pass on a single shard against the median multi-shard
       pass: how much of [shards] domains the farm turns into speed. *)
    add ~e2e:false "farm.parallel_efficiency" "ratio" Host
      (if not w.farm then 0.
       else
         let one = w.prepare ~seed ~smoke ~shards:1 in
         let p = one W.Raw (spec_of "ours") [| Probe.acc () |] in
         let t1 = fi (Array.fold_left ( + ) 0 p.unit_ns) in
         let t2 = Sample.median (List.map fi (host "ours").pass_ns) in
         t1 /. (fi shards *. t2));
    per_spec ~e2e:false "ocaml.minor_gcs_per_kop" "count" Host (fun k ->
        let h = host k in
        ratio h.minor_gcs (fi h.gc_ops /. 1e3));
    per_spec ~e2e:false "ocaml.promoted_words_per_op" "words" Host (fun k ->
        let h = host k in
        ratio h.promoted_words (fi h.gc_ops));
    (* Per layer, not end to end: on the 2-domain farm the peak major
       heap moves by a third from run to run with GC pacing alone. *)
    add ~e2e:false "ocaml.top_heap_mib" "MiB" Host
      (fi ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. mib);
    per_spec ~e2e:false "trace.overhead" "ratio" Host (fun k ->
        let h = host k in
        ratio (Sample.median h.mops) (Sample.median h.traced_mops))
  end;
  (* Per program, for each detecting spec: the overhead, the syscall and
     TLB shares of the spec's cycles, and what each ledger part adds to
     the overhead (its cycles beyond base's, over base's total; with the
     fault and other parts they sum to overhead - 1). *)
  let programs =
    List.concat_map
      (fun (prog, (b : Ledger.t)) ->
        List.concat_map
          (fun k ->
            let l = List.assoc prog (sim k).programs in
            let added part = ratio (part l -. part b) (Ledger.total b) in
            List.map
              (fun (q, v) -> (Printf.sprintf "%s.%s.%s" prog q k, v))
              [
                ("overhead", ratio (Ledger.total l) (Ledger.total b));
                ("syscall_share", Ledger.share l.syscall l);
                ("tlb_share", Ledger.share l.tlb l);
                ("overhead_from_syscall", added (fun l -> l.syscall));
                ("overhead_from_tlb", added (fun l -> l.tlb));
                ("overhead_from_work", added (fun l -> l.work));
              ])
          [ "ours"; "epoch"; "tagged" ])
      (sim "base").programs
  in
  let all = List.rev !all in
  let calls =
    if not traced then []
    else
      List.concat_map
        (fun k ->
          let a = Probe.acc () in
          Array.iter (fun x -> Probe.add ~into:a x) (host k).traced_acc;
          List.map
            (fun l -> (Printf.sprintf "runtime.%s_calls.%s" (Probe.layer_name l) k, Probe.calls a l))
            Probe.layers)
        keys
  in
  {
    workload = w.name;
    seed;
    traced;
    shards;
    attempted = !W.attempted;
    failed = !W.failed;
    notes = List.rev !W.failure_notes;
    metrics = List.filter_map (fun (n, e, v) -> if e <> traced then Some (n, v) else None) all;
    simulated =
      List.filter_map (fun (n, _, v) -> if v.clock = Sim then Some (n, v.v) else None) all;
    calls;
    programs;
  }
