open Vmm

type mode =
  | Full
  | Sampled of int
  | Tagged
  | Passthrough

let mode_label = function
  | Full -> "full"
  | Sampled n -> Printf.sprintf "sampled-1-in-%d" n
  | Tagged -> "tagged"
  | Passthrough -> "passthrough"

(* Modes that perform no protected (shadow) operations: no
   success/failure signal can accumulate there, so recovery needs the
   periodic probe instead of [record_success] streaks. *)
let is_passive = function
  | Tagged | Passthrough -> true
  | Full | Sampled _ -> false

type config = {
  sample_period : int;
  failure_threshold : int;
  window : int;
  recover_after : int;
  probe_every : int;
  cooldown : int;
  va_soft_budget : int;
  ladder : mode list;
}

let classic_ladder ~sample_period = [ Full; Sampled sample_period; Passthrough ]
let backend_ladder = [ Full; Tagged; Passthrough ]

let default_config =
  {
    sample_period = 8;
    failure_threshold = 4;
    window = 32;
    recover_after = 16;
    probe_every = 64;
    cooldown = 32;
    va_soft_budget = max_int;
    ladder = [];
  }

type transition = {
  at_cycles : float;
  alloc_seq : int;
  from_mode : mode;
  to_mode : mode;
  reason : string;
}

type t = {
  machine : Machine.t;
  config : config;
  ladder : mode list;  (* resolved rung order, most- to least-protected *)
  mutable mode : mode;
  mutable alloc_seq : int;
  (* Sliding window of recent protected-operation outcomes
     (true = failure), capped at [config.window]. *)
  recent : bool Queue.t;
  mutable recent_failures : int;
  mutable consecutive_successes : int;
  mutable last_transition_seq : int;
  mutable va_clamped : bool;
  (* Failed recovery probes (probe up-shift followed by another
     down-shift before reaching Full) double the next probe interval, so
     a persistent fault storm cannot make the ladder flap at a fixed
     frequency; reaching Full resets the backoff. *)
  mutable probe_scale : int;
  mutable last_up_was_probe : bool;
  mutable transitions_rev : transition list;
  mutable unprotected_frees : int;
}

let check config =
  if config.sample_period < 2 then
    invalid_arg "Governor: sample_period < 2 (Sampled must skip something)";
  if config.failure_threshold < 1 then
    invalid_arg "Governor: failure_threshold < 1";
  if config.window < config.failure_threshold then
    invalid_arg "Governor: window < failure_threshold (could never trip)";
  if config.recover_after < 1 then invalid_arg "Governor: recover_after < 1";
  if config.probe_every < 1 then invalid_arg "Governor: probe_every < 1";
  if config.cooldown < 0 then invalid_arg "Governor: cooldown < 0";
  if config.va_soft_budget < 0 then invalid_arg "Governor: va_soft_budget < 0"

let resolve_ladder (config : config) =
  let ladder =
    match config.ladder with
    | [] -> classic_ladder ~sample_period:config.sample_period
    | l -> l
  in
  (match ladder with
  | Full :: _ -> ()
  | _ -> invalid_arg "Governor: ladder must start at Full");
  List.iter
    (function
      | Sampled n when n < 2 ->
        invalid_arg "Governor: ladder Sampled period < 2"
      | _ -> ())
    ladder;
  let rec dup = function
    | [] -> false
    | m :: rest -> List.mem m rest || dup rest
  in
  if dup ladder then invalid_arg "Governor: ladder has a duplicate rung";
  ladder

let create ?(config = default_config) machine =
  check config;
  {
    machine;
    config;
    ladder = resolve_ladder config;
    mode = Full;
    alloc_seq = 0;
    recent = Queue.create ();
    recent_failures = 0;
    consecutive_successes = 0;
    last_transition_seq = 0;
    va_clamped = false;
    probe_scale = 1;
    last_up_was_probe = false;
    transitions_rev = [];
    unprotected_frees = 0;
  }

let mode t = t.mode
let ladder t = t.ladder

let backend t =
  match t.mode with
  | Full | Sampled _ -> `Shadow
  | Tagged -> `Tagged
  | Passthrough -> `Raw

let transitions t = List.rev t.transitions_rev
let unprotected_free_count t = t.unprotected_frees

let reset_window t =
  Queue.clear t.recent;
  t.recent_failures <- 0;
  t.consecutive_successes <- 0

let shift t to_mode ~reason =
  let from_mode = t.mode in
  if to_mode <> from_mode then begin
    (match to_mode with
    | (Passthrough | Tagged) when t.last_up_was_probe ->
      (* A probe up-shift bounced straight back down to a passive rung:
         exponential backoff so a persistent fault storm cannot make the
         ladder flap at a fixed frequency. *)
      t.probe_scale <- t.probe_scale * 2
    | Full -> t.probe_scale <- 1
    | Passthrough | Tagged | Sampled _ -> ());
    t.last_up_was_probe <- reason = "probe";
    t.mode <- to_mode;
    t.last_transition_seq <- t.alloc_seq;
    reset_window t;
    t.transitions_rev <-
      {
        at_cycles = Machine.cycles t.machine;
        alloc_seq = t.alloc_seq;
        from_mode;
        to_mode;
        reason;
      }
      :: t.transitions_rev;
    Telemetry.Sink.emit_always t.machine.Machine.trace (fun () ->
        Telemetry.Event.Mode_change
          {
            from_mode = mode_label from_mode;
            to_mode = mode_label to_mode;
            reason;
          })
  end

let next_down t =
  let rec go = function
    | a :: (b :: _) when a = t.mode -> Some b
    | _ :: rest -> go rest
    | [] -> None
  in
  go t.ladder

let next_up t =
  let rec go = function
    | a :: b :: _ when b = t.mode ->
      (* VA never shrinks, so once the soft budget is crossed the
         always-protect rung stays off-limits. *)
      if a = Full && t.va_clamped then None else Some a
    | _ :: rest -> go rest
    | [] -> None
  in
  go t.ladder

let cooled_down t = t.alloc_seq - t.last_transition_seq >= t.config.cooldown

let step_down t ~reason =
  match next_down t with
  | Some m -> shift t m ~reason
  | None -> ()

let on_alloc t =
  t.alloc_seq <- t.alloc_seq + 1;
  (* Address space never shrinks, so once the soft budget is crossed the
     always-protect mode stays off-limits for the rest of the run. *)
  if (not t.va_clamped) && Machine.va_bytes_used t.machine > t.config.va_soft_budget
  then begin
    t.va_clamped <- true;
    if t.mode = Full then step_down t ~reason:"va-budget"
  end;
  (* Passive rungs (Passthrough, Tagged) perform no protected shadow
     operations, so no success signal can accumulate; recovery needs an
     explicit periodic probe. *)
  if
    is_passive t.mode
    && t.alloc_seq - t.last_transition_seq
       >= t.config.probe_every * t.probe_scale
    && cooled_down t
  then
    match next_up t with Some m -> shift t m ~reason:"probe" | None -> ()

let should_protect t =
  match t.mode with
  | Full -> true
  | Sampled n -> t.alloc_seq mod n = 0
  | Tagged | Passthrough -> false

let push_outcome t failed =
  Queue.push failed t.recent;
  if failed then t.recent_failures <- t.recent_failures + 1;
  if Queue.length t.recent > t.config.window then
    if Queue.pop t.recent then t.recent_failures <- t.recent_failures - 1

let record_success t =
  push_outcome t false;
  t.consecutive_successes <- t.consecutive_successes + 1;
  if t.consecutive_successes >= t.config.recover_after && cooled_down t then
    match next_up t with
    | Some m -> shift t m ~reason:"recovered"
    | None -> ()

let record_failure t ~reason =
  push_outcome t true;
  t.consecutive_successes <- 0;
  if t.recent_failures >= t.config.failure_threshold then
    step_down t ~reason

let record_unprotected_free t =
  t.unprotected_frees <- t.unprotected_frees + 1

(* Intervals (in alloc sequence numbers) during which the mode was not
   Full — the periods to which any detection miss must be attributed. *)
let degraded_windows t =
  let close until = function
    | Some start -> Some (start, Some until)
    | None -> None
  in
  let rec go open_window acc = function
    | [] ->
      let acc =
        match open_window with
        | Some start when t.mode <> Full -> (start, None) :: acc
        | Some start ->
          (* Shouldn't happen (a Full mode closes the window below), but
             keep the record rather than drop it. *)
          (start, None) :: acc
        | None -> acc
      in
      List.rev acc
    | tr :: rest ->
      (match (open_window, tr.to_mode) with
      | None, Full -> go None acc rest
      | None, (Sampled _ | Tagged | Passthrough) ->
        go (Some tr.alloc_seq) acc rest
      | Some _, (Sampled _ | Tagged | Passthrough) -> go open_window acc rest
      | (Some _ as w), Full ->
        (match close tr.alloc_seq w with
        | Some interval -> go None (interval :: acc) rest
        | None -> go None acc rest))
  in
  go None [] (transitions t)
