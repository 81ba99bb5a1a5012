(* Simulated multi-day uptime over the server models: connection churn,
   heavy-tailed session lifetimes in a long-lived pool, and periodic
   dangling probes whose pointers live in the simulated root set — the
   endurance scenario of §3.4.  Without reclamation the run burns
   shadow VA linearly and exhausts (or projects exhausting) its budget;
   with the conservative GC armed it runs flat, and a differential
   oracle checks that no range a planted root still reached was ever
   reclaimed — every probe must keep trapping. *)

type config = {
  days : int;
  connections_per_day : int;
  server : string;
  seed : int;
  budget_pages : int;
  endurance : bool;  (* reuse policy + watermark escalation armed? *)
  governor : bool;  (* degrade stage wired to a ladder? *)
}

(* Wall-clock model for projections: one simulated day of connections
   is one calendar day, whatever the connection count. *)
let seconds_per_day = 86_400.

(* The fixed shape of every soak: a probe round every [probe_every]
   connections, planted in [probe_slots] root global slots; sessions of
   [session_bytes]; the reuse policy's trigger; and a stale heap word
   planted every [stale_heap_every] frees. *)
let probe_every = 10
let probe_slots = 4
let session_bytes = 256
let trigger_pages = 64
let stale_heap_every = 37

let default_config =
  {
    days = 4;
    connections_per_day = 150;
    server = "ghttpd";
    seed = 42;
    budget_pages = 6000;
    endurance = true;
    governor = false;
  }

type day_row = {
  day : int;
  va_pages_used : int;
  delta_pages : int;  (* fresh VA pages consumed during this day *)
  freed_shadow_pages : int;
  pinned_ranges : int;
  gc_runs : int;
  reclaimed_pages : int;
  probes : int;
  probes_detected : int;
  mode : string;
}

type result = {
  cfg : config;
  rows : day_row list;
  total_probes : int;
  missed_probes : int;
  reclaims_with_witness : int;
  gc_runs : int;
  reclaimed_pages : int;
  scanned_words : int;
  pinned_final : int;
  exhausted : bool;
  projected_hours : float option;
  first_day_delta_pages : int;
  tail_delta_pages : int;
  actions : (string * string * int) list;  (* action, level, pages_used *)
  governor_transitions : (string * string * string) list;
  pressure_levels : string list;  (* va-pressure transitions, in order *)
}

(* drand48-style LCG with an xorshift finisher, positive results. *)
let rand state =
  state := ((!state * 0x5DEECE66D) + 0xB) land max_int;
  let z = !state in
  (z lxor (z lsr 17)) land max_int

type session = {
  s_addr : Vmm.Addr.t;
  s_protected : bool;
  s_dies_at : int;  (* connection number *)
}

let find_server name =
  match
    List.find_opt
      (fun s -> s.Workload.Spec.s_name = name)
      Workload.Servers.all
  with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Soak: unknown server %S (know: %s)" name
         (String.concat ", "
            (List.map (fun s -> s.Workload.Spec.s_name) Workload.Servers.all)))

let run ?(config = default_config) () =
  if config.days < 1 then invalid_arg "Soak: days < 1";
  if config.connections_per_day < 1 then invalid_arg "Soak: connections_per_day < 1";
  let spec = find_server config.server in
  let machine = Vmm.Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool machine in
  let pool =
    match Runtime.Schemes.introspect scheme with
    | Runtime.Schemes.Shadow_pool { global; _ } -> global
    | _ -> invalid_arg "Soak: shadow_pool introspection missing"
  in
  let roots = Vmm.Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let policy =
    Shadow.Reuse_policy.create ~gc
      (Shadow.Reuse_policy.Conservative_gc
         { trigger_pages; scan_cost_per_object = 2 })
      pool
  in
  let governor =
    if config.governor then Some (Runtime.Governor.create machine) else None
  in
  let budget =
    Shadow.Va_budget.create ~budget_pages:config.budget_pages machine
  in
  let endurance =
    if config.endurance then begin
      (* The reuse policy is the steady-state reclaimer: it fires from
         the pool's after-free hook on every completed free.  The
         endurance controller layers the watermark escalation on top. *)
      Shadow.Reuse_policy.attach policy;
      Some (Runtime.Endurance.create ~policy ?governor ~budget gc)
    end
    else None
  in
  let rng = ref config.seed in
  let sessions = ref ([] : session list) in
  let planted = Array.make probe_slots 0 in
  let next_slot = ref 0 in
  let want_plant = ref false in
  let frees = ref 0 in
  let total_probes = ref 0 in
  let missed_probes = ref 0 in
  let reclaims_with_witness = ref 0 in
  let word = 8 in
  let heavy_tail_lifetime conn =
    let r = rand rng in
    if r mod 8 = 0 then
      (* the tail: up to several simulated days *)
      conn + config.connections_per_day * (1 + (r / 8 mod config.days))
    else conn + 1 + (r / 8 mod 16)
  in
  let alloc_session conn =
    let protect =
      match governor with
      | Some g ->
        Runtime.Governor.on_alloc g;
        Runtime.Governor.should_protect g
      | None -> true
    in
    let addr =
      if protect then scheme.Runtime.Scheme.malloc ~site:"soak:session" session_bytes
      else Shadow.Shadow_pool.alloc_raw pool session_bytes
    in
    (* Session payload: realistic words, none of which are pointers. *)
    for i = 0 to (session_bytes / word) - 1 do
      scheme.Runtime.Scheme.store (addr + (i * word)) ~width:word ((conn * 17) + i + 1)
    done;
    sessions :=
      { s_addr = addr; s_protected = protect; s_dies_at = heavy_tail_lifetime conn }
      :: !sessions
  in
  let free_session s =
    incr frees;
    if s.s_protected then begin
      (* A probe is due: before the object dies, its pointer goes into
         a simulated root — exactly the stale-register/global case the
         GC must witness.  Planting happens strictly before the free so
         the root already exists when the free hook's reclamation can
         first run; any later reclaim of this range is a GC bug, which
         is what the oracle counts. *)
      if !want_plant then begin
        want_plant := false;
        let slot = !next_slot in
        next_slot := (slot + 1) mod probe_slots;
        (* Overwriting a slot drops the old root: its range becomes
           provably unreferenced and a later GC may reclaim it. *)
        planted.(slot) <- s.s_addr;
        Vmm.Roots.set_global roots ~slot s.s_addr
      end;
      (* Occasionally leave a stale copy of the dying pointer in a live
         session's heap word: the mark phase must find it and pin the
         range until that session dies too. *)
      (if !frees mod stale_heap_every = 0 then
         match
           List.find_opt (fun l -> l.s_protected && l.s_addr <> s.s_addr) !sessions
         with
         | Some l ->
           scheme.Runtime.Scheme.store
             (l.s_addr + ((session_bytes / word / 2) * word))
             ~width:word s.s_addr
         | None -> ());
      scheme.Runtime.Scheme.free ~site:"soak:session-done" s.s_addr
    end
    else Shadow.Shadow_pool.dealloc_raw pool s.s_addr
  in
  let probe_round probes detected =
    Array.iter
      (fun addr ->
        if addr <> 0 then begin
          incr total_probes;
          incr probes;
          match scheme.Runtime.Scheme.load addr ~width:word with
          | (_ : int) ->
            (* The dangling read went through: the range was reclaimed
               and recycled while a root still named it. *)
            incr missed_probes;
            incr reclaims_with_witness
          | exception Shadow.Report.Violation _ -> incr detected
          | exception Vmm.Fault.Trap _ ->
            (* Still protected (or unmapped) but the diagnostic record
               is gone: the trap fired, so detection held, but a
               reclaim forgot a rooted range's registry entry. *)
            incr detected;
            if
              not
                (List.exists
                   (fun (base, pages) ->
                     addr >= base && addr < base + Vmm.Addr.of_page pages)
                   (Shadow.Shadow_pool.freed_ranges pool))
            then incr reclaims_with_witness
        end)
      planted
  in
  let rows = ref [] in
  let prev_pages = ref (Shadow.Va_budget.used_pages budget) in
  let first_day_delta = ref 0 in
  let tail_delta = ref 0 in
  let day_probes = ref 0 in
  let day_detected = ref 0 in
  let conn = ref 0 in
  for day = 1 to config.days do
    day_probes := 0;
    day_detected := 0;
    for _ = 1 to config.connections_per_day do
      incr conn;
      let c = !conn in
      (* The server model's own per-connection churn. *)
      spec.Workload.Spec.handler c scheme;
      alloc_session c;
      let dead, live = List.partition (fun s -> s.s_dies_at <= c) !sessions in
      sessions := live;
      List.iter free_session dead;
      (match endurance with
      | Some e -> ignore (Runtime.Endurance.tick e : Shadow.Gc.report option)
      | None -> ignore (Shadow.Va_budget.poll budget : Shadow.Va_budget.level));
      if c mod probe_every = 0 then begin
        want_plant := true;
        probe_round day_probes day_detected
      end
    done;
    let pages = Shadow.Va_budget.used_pages budget in
    let delta = pages - !prev_pages in
    prev_pages := pages;
    if day = 1 then first_day_delta := delta;
    if day = config.days then tail_delta := delta;
    rows :=
      {
        day;
        va_pages_used = pages;
        delta_pages = delta;
        freed_shadow_pages = Shadow.Shadow_pool.freed_shadow_pages pool;
        pinned_ranges = List.length (Shadow.Gc.last_pinned gc);
        gc_runs = Shadow.Gc.runs gc;
        reclaimed_pages = Shadow.Gc.total_reclaimed_pages gc;
        probes = !day_probes;
        probes_detected = !day_detected;
        mode =
          (match governor with
          | Some g -> Runtime.Governor.mode_label (Runtime.Governor.mode g)
          | None -> "full");
      }
      :: !rows
  done;
  let used = Shadow.Va_budget.used_pages budget in
  let pages_per_second =
    (* burn rate observed over the final day — the steady state *)
    float_of_int !tail_delta /. seconds_per_day
  in
  let projected_hours =
    if used >= config.budget_pages then Some 0.
    else Shadow.Va_budget.hours_until_exhaustion budget ~pages_per_second
  in
  {
    cfg = config;
    rows = List.rev !rows;
    total_probes = !total_probes;
    missed_probes = !missed_probes;
    reclaims_with_witness = !reclaims_with_witness;
    gc_runs = Shadow.Gc.runs gc;
    reclaimed_pages = Shadow.Gc.total_reclaimed_pages gc;
    scanned_words = Shadow.Gc.total_scanned_words gc;
    pinned_final = List.length (Shadow.Gc.last_pinned gc);
    exhausted = used >= config.budget_pages;
    projected_hours;
    first_day_delta_pages = !first_day_delta;
    tail_delta_pages = !tail_delta;
    actions =
      (match endurance with
      | Some e ->
        List.map
          (fun (a : Runtime.Endurance.entry) ->
            ( Runtime.Endurance.action_label a.Runtime.Endurance.action,
              Shadow.Va_budget.level_label a.Runtime.Endurance.at_level,
              a.Runtime.Endurance.at_pages_used ))
          (Runtime.Endurance.actions e)
      | None -> []);
    governor_transitions =
      (match governor with
      | Some g ->
        List.map
          (fun (tr : Runtime.Governor.transition) ->
            ( Runtime.Governor.mode_label tr.Runtime.Governor.from_mode,
              Runtime.Governor.mode_label tr.Runtime.Governor.to_mode,
              tr.Runtime.Governor.reason ))
          (Runtime.Governor.transitions g)
      | None -> []);
    pressure_levels =
      List.map
        (fun (tr : Shadow.Va_budget.transition) ->
          Shadow.Va_budget.level_label tr.Shadow.Va_budget.to_level)
        (Shadow.Va_budget.transitions budget);
  }

let check r =
  List.filter_map Fun.id
    [
      (if r.missed_probes > 0 then
         Some
           (Printf.sprintf "%d dangling probe(s) went undetected"
              r.missed_probes)
       else None);
      (if r.reclaims_with_witness > 0 then
         Some
           (Printf.sprintf "GC reclaimed %d rooted (witnessed) range(s)"
              r.reclaims_with_witness)
       else None);
    ]
