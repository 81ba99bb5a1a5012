type action =
  | Ran_gc
  | Tightened
  | Degraded

let action_label = function
  | Ran_gc -> "gc"
  | Tightened -> "tighten"
  | Degraded -> "degrade"

type entry = {
  action : action;
  at_level : Shadow.Va_budget.level;
  at_pages_used : int;
}

type t = {
  budget : Shadow.Va_budget.t;
  gc : Shadow.Gc.t;
  policy : Shadow.Reuse_policy.t option;
  governor : Governor.t option;
  mutable prev_level : Shadow.Va_budget.level;
  mutable actions_rev : entry list;
}

(* Each tightening divides the reuse trigger by [tighten_divisor],
   never below [min_trigger_pages]. *)
let tighten_divisor = 4
let min_trigger_pages = 1

let create ?policy ?governor ~budget gc =
  {
    budget;
    gc;
    policy;
    governor;
    prev_level = Shadow.Va_budget.L_ok;
    actions_rev = [];
  }

let note t action =
  t.actions_rev <-
    {
      action;
      at_level = Shadow.Va_budget.level t.budget;
      at_pages_used = Shadow.Va_budget.used_pages t.budget;
    }
    :: t.actions_rev

let run_gc t =
  let pool = Shadow.Gc.pool t.gc in
  if Shadow.Shadow_pool.freed_shadow_pages pool > 0 then begin
    let report = Shadow.Gc.run t.gc in
    note t Ran_gc;
    Some report
  end
  else None

let tighten t =
  match t.policy with
  | Some policy ->
    (match Shadow.Reuse_policy.trigger_pages policy with
    | Some trigger when trigger > min_trigger_pages ->
      Shadow.Reuse_policy.set_trigger_pages policy
        (max min_trigger_pages (trigger / tighten_divisor));
      note t Tightened
    | Some _ | None -> ())
  | None -> ()

let degrade t =
  match t.governor with
  | Some g ->
    Governor.step_down g ~reason:"va-pressure";
    note t Degraded
  | None -> ()

(* The ordered §3.4 response.  GC runs at every level at or above L_gc;
   tightening and degradation fire once per upward crossing of their
   watermark, so sustained pressure does not hammer the ladder — and the
   action log provably shows gc-first, tighten-second, degrade-last. *)
let tick t =
  let open Shadow.Va_budget in
  let prev = t.prev_level in
  let level = poll t.budget in
  t.prev_level <- level;
  let crossed l = level_rank level >= level_rank l && level_rank prev < level_rank l in
  let report =
    if level_rank level >= level_rank L_gc then run_gc t else None
  in
  if crossed L_tighten then tighten t;
  if crossed L_degrade then degrade t;
  report

let actions t = List.rev t.actions_rev
