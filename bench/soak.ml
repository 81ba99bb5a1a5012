(* Multi-day soak (§3.4 endurance): the same server-uptime simulation
   run three ways.

   1. no-reclaim — the reuse policy disarmed: shadow VA burns linearly
      and the run either exhausts its page budget or projects a finite
      time-to-exhaustion at the observed burn rate.
   2. with-gc — the conservative GC armed through the reuse policy and
      the watermark escalation: steady-state VA is flat, and the
      differential oracle holds — every dangling probe still traps
      (missed_probes = 0) and no rooted range was ever reclaimed
      (reclaims_with_witness = 0).
   3. ladder — a deliberately tiny budget with the governor wired in,
      demonstrating the ordered §3.4 response: GC first, then reuse
      tightening, then (only then) ladder degradation, all visible in
      the endurance action log and the governor's va-pressure
      transition.

   [run] gates all three: probes planted and [Harness.Soak.check]'s
   oracle zeros on every run, exhaustion-or-projection on run 1, GC
   activity and flatness against run 1 on run 2, and strict
   gc < tighten < degrade ordering with a va-pressure governor
   transition on run 3. *)

module J = Telemetry.Json

let row_json (r : Harness.Soak.day_row) =
  J.Obj
    [
      ("day", J.Int r.Harness.Soak.day);
      ("va_pages_used", J.Int r.Harness.Soak.va_pages_used);
      ("delta_pages", J.Int r.Harness.Soak.delta_pages);
      ("freed_shadow_pages", J.Int r.Harness.Soak.freed_shadow_pages);
      ("pinned_ranges", J.Int r.Harness.Soak.pinned_ranges);
      ("gc_runs", J.Int r.Harness.Soak.gc_runs);
      ("reclaimed_pages", J.Int r.Harness.Soak.reclaimed_pages);
      ("probes", J.Int r.Harness.Soak.probes);
      ("probes_detected", J.Int r.Harness.Soak.probes_detected);
      ("mode", J.String r.Harness.Soak.mode);
    ]

let result_json (r : Harness.Soak.result) =
  J.Obj
    [
      ("days", J.Int r.Harness.Soak.cfg.Harness.Soak.days);
      ( "connections",
        J.Int
          (r.Harness.Soak.cfg.Harness.Soak.days
          * r.Harness.Soak.cfg.Harness.Soak.connections_per_day) );
      ("budget_pages", J.Int r.Harness.Soak.cfg.Harness.Soak.budget_pages);
      ("rows", J.List (List.map row_json r.Harness.Soak.rows));
      ("total_probes", J.Int r.Harness.Soak.total_probes);
      ("missed_probes", J.Int r.Harness.Soak.missed_probes);
      ("reclaims_with_witness", J.Int r.Harness.Soak.reclaims_with_witness);
      ("gc_runs", J.Int r.Harness.Soak.gc_runs);
      ("reclaimed_pages", J.Int r.Harness.Soak.reclaimed_pages);
      ("scanned_words", J.Int r.Harness.Soak.scanned_words);
      ("pinned_final", J.Int r.Harness.Soak.pinned_final);
      ("exhausted", J.Bool r.Harness.Soak.exhausted);
      ( "projected_hours",
        match r.Harness.Soak.projected_hours with
        | Some h -> J.Float h
        | None -> J.Null );
      ("first_day_delta_pages", J.Int r.Harness.Soak.first_day_delta_pages);
      ("tail_delta_pages", J.Int r.Harness.Soak.tail_delta_pages);
      ( "actions",
        J.List
          (List.map
             (fun (action, level, pages) ->
               J.Obj
                 [
                   ("action", J.String action);
                   ("level", J.String level);
                   ("pages_used", J.Int pages);
                 ])
             r.Harness.Soak.actions) );
      ( "governor_transitions",
        J.List
          (List.map
             (fun (from_mode, to_mode, reason) ->
               J.Obj
                 [
                   ("from", J.String from_mode);
                   ("to", J.String to_mode);
                   ("reason", J.String reason);
                 ])
             r.Harness.Soak.governor_transitions) );
      ( "pressure_levels",
        J.List
          (List.map (fun l -> J.String l) r.Harness.Soak.pressure_levels) );
    ]

let print_result name (r : Harness.Soak.result) =
  Printf.printf "  %s:\n" name;
  Printf.printf
    "    day | va pages |  +day | freed | pinned | gc | reclaimed | probes \
     (ok) | mode\n";
  List.iter
    (fun (row : Harness.Soak.day_row) ->
      Printf.printf "    %3d | %8d | %5d | %5d | %6d | %2d | %9d | %6d (%d) | %s\n"
        row.Harness.Soak.day row.Harness.Soak.va_pages_used
        row.Harness.Soak.delta_pages row.Harness.Soak.freed_shadow_pages
        row.Harness.Soak.pinned_ranges row.Harness.Soak.gc_runs
        row.Harness.Soak.reclaimed_pages row.Harness.Soak.probes
        row.Harness.Soak.probes_detected row.Harness.Soak.mode)
    r.Harness.Soak.rows;
  Printf.printf
    "    probes %d (missed %d)  reclaims-with-witness %d  gc runs %d  \
     reclaimed %d pages  pinned %d\n"
    r.Harness.Soak.total_probes r.Harness.Soak.missed_probes
    r.Harness.Soak.reclaims_with_witness r.Harness.Soak.gc_runs
    r.Harness.Soak.reclaimed_pages r.Harness.Soak.pinned_final;
  (match (r.Harness.Soak.exhausted, r.Harness.Soak.projected_hours) with
  | true, _ -> Printf.printf "    VA budget EXHAUSTED\n"
  | false, Some h ->
    Printf.printf "    projected exhaustion in %.1f simulated hours\n" h
  | false, None -> Printf.printf "    flat: never exhausts at this rate\n");
  (if r.Harness.Soak.actions <> [] then
     (* the log is mostly repeated gc ticks: print each action's first
        firing (in log order) plus its count *)
     let seen = Hashtbl.create 4 in
     List.iter
       (fun (action, level, pages) ->
         match Hashtbl.find_opt seen action with
         | Some (first, n) -> Hashtbl.replace seen action (first, n + 1)
         | None -> Hashtbl.replace seen action ((level, pages), 1))
       r.Harness.Soak.actions;
     let order =
       List.filter_map
         (fun a -> Option.map (fun v -> (a, v)) (Hashtbl.find_opt seen a))
         [ "gc"; "tighten"; "degrade" ]
     in
     Printf.printf "    actions: %s\n"
       (String.concat " -> "
          (List.map
             (fun (action, ((level, pages), n)) ->
               Printf.sprintf "%s x%d (first @%s, %dp)" action n level pages)
             order)));
  if r.Harness.Soak.governor_transitions <> [] then
    Printf.printf "    governor: %s\n"
      (String.concat ", "
         (List.map
            (fun (from_mode, to_mode, reason) ->
              Printf.sprintf "%s->%s (%s)" from_mode to_mode reason)
            r.Harness.Soak.governor_transitions))

let run ~smoke () =
  print_endline "\n== Multi-day soak: VA endurance with and without the GC ==";
  let days = if smoke then 3 else 6 in
  let connections_per_day = if smoke then 120 else 400 in
  let base =
    {
      Harness.Soak.default_config with
      Harness.Soak.days;
      connections_per_day;
      (* sized so the unreclaimed run hits the wall mid-run *)
      budget_pages = days * connections_per_day;
    }
  in
  let without_gc =
    Harness.Soak.run
      ~config:{ base with Harness.Soak.endurance = false }
      ()
  in
  print_result "no-reclaim" without_gc;
  let with_gc = Harness.Soak.run ~config:base () in
  print_result "with-gc" with_gc;
  (* The ladder demo: a budget small enough that the monotone VA counter
     walks through every watermark during day one, with the governor
     armed so the degrade stage is real. *)
  let ladder =
    Harness.Soak.run
      ~config:
        {
          base with
          Harness.Soak.days = 1;
          connections_per_day = 120;
          budget_pages = 40;
          governor = true;
        }
      ()
  in
  print_result "ladder" ladder;
  List.iter
    (fun (name, (r : Harness.Soak.result)) ->
      Gate.require
        (r.Harness.Soak.total_probes > 0)
        "soak %s: ran no dangling probes" name;
      List.iter
        (fun m -> Gate.fail (Printf.sprintf "soak %s: %s" name m))
        (Harness.Soak.check r))
    [ ("without_gc", without_gc); ("with_gc", with_gc); ("ladder", ladder) ];
  Gate.require
    (without_gc.Harness.Soak.exhausted
    ||
    match without_gc.Harness.Soak.projected_hours with
    | Some h -> h > 0.0
    | None -> false)
    "soak without_gc: neither exhausted its budget nor projected a finite \
     exhaustion time";
  Gate.require (with_gc.Harness.Soak.gc_runs > 0) "soak with_gc: never ran the GC";
  Gate.require
    (with_gc.Harness.Soak.reclaimed_pages > 0)
    "soak with_gc: reclaimed nothing";
  Gate.require
    (not with_gc.Harness.Soak.exhausted)
    "soak with_gc: exhausted its VA budget despite the GC";
  let gc_tail = with_gc.Harness.Soak.tail_delta_pages in
  let raw_tail = without_gc.Harness.Soak.tail_delta_pages in
  Gate.require (raw_tail > 0) "soak without_gc: no steady-state VA growth";
  Gate.require
    (4 * gc_tail <= raw_tail)
    "soak with_gc: not flat (tail %d pages/day vs %d unreclaimed)" gc_tail
    raw_tail;
  let first_index want =
    let rec go i = function
      | [] -> None
      | (action, _, _) :: rest -> if action = want then Some i else go (i + 1) rest
    in
    go 0 ladder.Harness.Soak.actions
  in
  (match (first_index "gc", first_index "tighten", first_index "degrade") with
  | Some g, Some t, Some d ->
    Gate.require (g < t && t < d)
      "soak ladder: actions out of order (want gc < tighten < degrade)"
  | g, t, d ->
    Gate.fail
      (Printf.sprintf
         "soak ladder: missing actions (gc %b, tighten %b, degrade %b)"
         (g <> None) (t <> None) (d <> None)));
  Gate.require
    (List.exists
       (fun (_, _, reason) -> reason = "va-pressure")
       ladder.Harness.Soak.governor_transitions)
    "soak ladder: no governor transition attributed to va-pressure";
  J.Obj
    [
      ("without_gc", result_json without_gc);
      ("with_gc", result_json with_gc);
      ("ladder", result_json ladder);
    ]
