open Vmm

type plan_spec = {
  p_name : string;
  p_description : string;
  rules : Fault_plan.rule list;
}

let plans =
  [
    {
      p_name = "none";
      p_description = "no faults: the governed scheme must behave like the \
                       plain one";
      rules = [];
    };
    {
      p_name = "transient-5";
      p_description = "5% EAGAIN on mremap+mprotect";
      rules =
        [
          {
            Fault_plan.calls = [ Fault_plan.Mremap; Fault_plan.Mprotect ];
            trigger = Fault_plan.Rate 0.05;
            error = Fault_plan.Transient Fault_plan.Eagain;
          };
        ];
    };
    {
      p_name = "transient-10";
      p_description = "10% transient ENOMEM on mremap+mprotect";
      rules =
        [
          {
            Fault_plan.calls = [ Fault_plan.Mremap; Fault_plan.Mprotect ];
            trigger = Fault_plan.Rate 0.10;
            error = Fault_plan.Transient Fault_plan.Enomem;
          };
        ];
    };
    {
      p_name = "burst";
      p_description = "mprotect calls 40..159 all fail with EAGAIN";
      rules =
        [
          {
            Fault_plan.calls = [ Fault_plan.Mprotect ];
            trigger = Fault_plan.Burst { first = 40; length = 120 };
            error = Fault_plan.Transient Fault_plan.Eagain;
          };
        ];
    };
    {
      p_name = "storm";
      p_description = "80% EAGAIN on mprotect: retries cannot absorb this; \
                       the ladder must step down and the run must still \
                       complete";
      rules =
        [
          {
            Fault_plan.calls = [ Fault_plan.Mprotect ];
            trigger = Fault_plan.Rate 0.8;
            error = Fault_plan.Transient Fault_plan.Eagain;
          };
        ];
    };
    {
      p_name = "nth-fatal";
      p_description = "the 60th mremap fails fatally with ENOMEM";
      rules =
        [
          {
            Fault_plan.calls = [ Fault_plan.Mremap ];
            trigger = Fault_plan.Nth_call 60;
            error = Fault_plan.Fatal Fault_plan.Enomem;
          };
        ];
    };
    {
      p_name = "va-budget";
      p_description = "mmap/mremap fail with ENOSPC once 48 MiB of address \
                       space are mapped";
      rules =
        [
          {
            Fault_plan.calls = [ Fault_plan.Mmap; Fault_plan.Mremap ];
            trigger = Fault_plan.Va_budget (48 * 1024 * 1024);
            error = Fault_plan.Fatal Fault_plan.Enospc;
          };
        ];
    };
    {
      p_name = "recycle-fail";
      p_description = "every mmap_fixed re-backing of a recycled range \
                       fails with ENOMEM: pools must take fresh pages";
      rules =
        [
          {
            Fault_plan.calls = [ Fault_plan.Mmap_fixed ];
            trigger = Fault_plan.Rate 1.;
            error = Fault_plan.Fatal Fault_plan.Enomem;
          };
        ];
    };
  ]

type scheme_kind =
  | Governed_pool
  | Governed_basic

let scheme_kind_label = function
  | Governed_pool -> "governed-shadow-pool"
  | Governed_basic -> "governed-shadow-basic"

type row = {
  plan : string;
  scheme : string;
  workload : string;
  completed : bool;
  crash : string option;
  faults_injected : int;
  retries : int;
  transitions : int;
  final_mode : string;
  unprotected_allocs : int;
  unprotected_frees : int;
  probes_detected : int;
  probes_missed_attributed : int;
  probes_missed_unattributed : int;
  probe_outcomes : (string * string) list;
}

let make_governed kind plan_rules ~seed =
  let fault_plan = Fault_plan.create ~seed plan_rules in
  let machine = Machine.create ~cost:Cost_model.llvm_base ~fault_plan () in
  match kind with
  | Governed_pool -> Runtime.Governed.shadow_pool machine
  | Governed_basic -> Runtime.Governed.shadow_basic machine

module Fi = Workload.Fault_injection

(* The post-run probes: the temporal bugs a [Full]-mode governed scheme
   must catch.  A Silent outcome is checked against the governed
   scheme's attribution record for the victim address. *)
let probe_scenarios = Fi.[ read_after_free; write_after_free; double_free ]

type probe_tally = {
  mutable detected : int;
  mutable missed_attributed : int;
  mutable missed_unattributed : int;
  mutable outcomes : (string * string) list;
  mutable probe_crash : string option;
}

let run_probes governed =
  let scheme = Runtime.Governed.scheme governed in
  let degraded () =
    Runtime.Governor.mode (Runtime.Governed.governor governed)
    <> Runtime.Governor.Full
  in
  let tally =
    {
      detected = 0;
      missed_attributed = 0;
      missed_unattributed = 0;
      outcomes = [];
      probe_crash = None;
    }
  in
  List.iter
    (fun (sc : Fi.scenario) ->
      let name = sc.Fi.sc_name in
      match sc.Fi.inject scheme with
      | addr, outcome ->
        let outcome = Fi.reclassify ~degraded:(degraded ()) outcome in
        tally.outcomes <- (name, Fi.outcome_label outcome) :: tally.outcomes;
        (match outcome with
        | Fi.Detected _ -> tally.detected <- tally.detected + 1
        | Fi.Silent _ ->
          if Runtime.Governed.was_unprotected governed addr then
            tally.missed_attributed <- tally.missed_attributed + 1
          else tally.missed_unattributed <- tally.missed_unattributed + 1
        | Fi.Crashed_degraded _ ->
          (* A crash while degraded is attributable but still a miss of
             the diagnosed-violation guarantee. *)
          tally.missed_attributed <- tally.missed_attributed + 1
        | Fi.Crashed msg -> tally.probe_crash <- Some (name ^ ": " ^ msg))
      | exception exn ->
        (* The probe's own setup (malloc/free) must never die: the
           governed scheme degrades instead. *)
        tally.outcomes <- (name, "SETUP-CRASH") :: tally.outcomes;
        tally.probe_crash <- Some (name ^ ": " ^ Printexc.to_string exn))
    probe_scenarios;
  tally.outcomes <- List.rev tally.outcomes;
  tally

let run_one ?(seed = 0x5eed) (spec : plan_spec) kind
    (batch : Workload.Spec.batch) ~scale =
  let governed = make_governed kind spec.rules ~seed in
  let scheme = Runtime.Governed.scheme governed in
  let machine = scheme.Runtime.Scheme.machine in
  let crash =
    match
      Fi.observe (fun () ->
          batch.Workload.Spec.run scheme ~scale;
          0)
    with
    | Fi.Silent _ -> None
    | Fi.Detected r ->
      (* The workloads are correct programs: any violation here is a
         false positive, which the campaign treats as a crash. *)
      Some ("false positive: " ^ Shadow.Report.to_string r)
    | Fi.Crashed msg | Fi.Crashed_degraded msg -> Some msg
  in
  let tally =
    match crash with
    | None -> Some (run_probes governed)
    | Some _ -> None
  in
  let governor = Runtime.Governed.governor governed in
  let stats = Stats.snapshot machine.Machine.stats in
  {
    plan = spec.p_name;
    scheme = scheme_kind_label kind;
    workload = batch.Workload.Spec.name;
    completed = crash = None;
    crash =
      (match tally with
      | Some { probe_crash = Some _ as c; _ } -> c
      | _ -> crash);
    faults_injected = Fault_plan.injected machine.Machine.fault_plan;
    retries = stats.Stats.syscall_retries;
    transitions = List.length (Runtime.Governor.transitions governor);
    final_mode = Runtime.Governor.mode_label (Runtime.Governor.mode governor);
    unprotected_allocs = Runtime.Governed.unprotected_allocs governed;
    unprotected_frees = Runtime.Governed.unprotected_frees governed;
    probes_detected = (match tally with Some t -> t.detected | None -> 0);
    probes_missed_attributed =
      (match tally with Some t -> t.missed_attributed | None -> 0);
    probes_missed_unattributed =
      (match tally with Some t -> t.missed_unattributed | None -> 0);
    probe_outcomes = (match tally with Some t -> t.outcomes | None -> []);
  }

let campaign ?(scale_divisor = 1) ?seed ?(workloads = Workload.Catalog.olden)
    () =
  List.concat_map
    (fun (spec : plan_spec) ->
      List.concat_map
        (fun (batch : Workload.Spec.batch) ->
          let scale =
            max 1 (batch.Workload.Spec.default_scale / scale_divisor)
          in
          let pool = run_one ?seed spec Governed_pool batch ~scale in
          (* The basic (pool-less) variant is exercised on one plan to
             keep the matrix affordable; its failure modes differ only
             in the backing allocator. *)
          if spec.p_name = "transient-10" then
            [ pool; run_one ?seed spec Governed_basic batch ~scale ]
          else [ pool ])
        workloads)
    plans

let undiagnosed_crashes rows =
  List.filter (fun r -> r.crash <> None) rows

let unattributed_misses rows =
  List.fold_left (fun acc r -> acc + r.probes_missed_unattributed) 0 rows

let ok rows =
  undiagnosed_crashes rows = [] && unattributed_misses rows = 0

let render rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "%-13s %-22s %-10s %-5s %6s %6s %5s %-15s %3s %3s %3s\n"
       "plan" "scheme" "workload" "done" "faults" "retry" "shift" "final-mode"
       "det" "att" "UNA");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "%-13s %-22s %-10s %-5s %6d %6d %5d %-15s %3d %3d %3d%s\n" r.plan
           r.scheme r.workload
           (if r.completed then "yes" else "NO")
           r.faults_injected r.retries r.transitions r.final_mode
           r.probes_detected r.probes_missed_attributed
           r.probes_missed_unattributed
           (match r.crash with None -> "" | Some c -> "  CRASH: " ^ c)))
    rows;
  Buffer.add_string b
    (Printf.sprintf
       "summary: %d rows, %d undiagnosed crashes, %d unattributed misses -> \
        %s\n"
       (List.length rows)
       (List.length (undiagnosed_crashes rows))
       (unattributed_misses rows)
       (if ok rows then "OK" else "FAIL"));
  Buffer.contents b

let to_json rows =
  let module J = Telemetry.Json in
  let row_json r =
    J.Obj
      [
        ("plan", J.String r.plan);
        ("scheme", J.String r.scheme);
        ("workload", J.String r.workload);
        ("completed", J.Bool r.completed);
        ( "crash",
          match r.crash with None -> J.Null | Some c -> J.String c );
        ("faults_injected", J.Int r.faults_injected);
        ("retries", J.Int r.retries);
        ("transitions", J.Int r.transitions);
        ("final_mode", J.String r.final_mode);
        ("unprotected_allocs", J.Int r.unprotected_allocs);
        ("unprotected_frees", J.Int r.unprotected_frees);
        ("probes_detected", J.Int r.probes_detected);
        ("probes_missed_attributed", J.Int r.probes_missed_attributed);
        ("probes_missed_unattributed", J.Int r.probes_missed_unattributed);
        ( "probes",
          J.Obj (List.map (fun (n, l) -> (n, J.String l)) r.probe_outcomes) );
      ]
  in
  J.Obj
    [
      ("rows", J.List (List.map row_json rows));
      ( "summary",
        J.Obj
          [
            ( "undiagnosed_crashes",
              J.Int (List.length (undiagnosed_crashes rows)) );
            ("unattributed_misses", J.Int (unattributed_misses rows));
            ("ok", J.Bool (ok rows));
          ] );
    ]
