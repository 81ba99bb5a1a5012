open Vmm

type level =
  | L_ok
  | L_gc
  | L_tighten
  | L_degrade

let level_label = function
  | L_ok -> "ok"
  | L_gc -> "gc"
  | L_tighten -> "tighten"
  | L_degrade -> "degrade"

let level_rank = function
  | L_ok -> 0
  | L_gc -> 1
  | L_tighten -> 2
  | L_degrade -> 3

(* Fractions of the budget at which each level begins. *)
let gc_watermark = 0.50
let tighten_watermark = 0.75
let degrade_watermark = 0.90

type transition = {
  from_level : level;
  to_level : level;
  at_pages_used : int;
}

type t = {
  machine : Machine.t;
  budget_pages : int;
  va_pages_used : Telemetry.Metrics.gauge;
  mutable level : level;
  mutable transitions_rev : transition list;
}

let create ~budget_pages machine =
  if budget_pages <= 0 then invalid_arg "Va_budget: budget_pages <= 0";
  {
    machine;
    budget_pages;
    va_pages_used =
      Telemetry.Metrics.gauge
        (Stats.registry machine.Machine.stats)
        "shadow.va_pages_used";
    level = L_ok;
    transitions_rev = [];
  }

(* Per-machine accounting: total VA ever handed out, in pages.  This is
   deliberately monotone — address space is never returned to the bump
   pointer, only recycled — so pressure can only be relieved by reuse
   slowing the growth, never by the fraction dropping. *)
let used_pages t = Machine.va_bytes_used t.machine / Addr.page_size

let remaining_pages t = max 0 (t.budget_pages - used_pages t)
let used_fraction t = float_of_int (used_pages t) /. float_of_int t.budget_pages

let level_of_fraction f =
  if f >= degrade_watermark then L_degrade
  else if f >= tighten_watermark then L_tighten
  else if f >= gc_watermark then L_gc
  else L_ok

let level t = t.level

let poll t =
  let pages = used_pages t in
  Telemetry.Metrics.set_gauge t.va_pages_used (float_of_int pages);
  let next = level_of_fraction (used_fraction t) in
  if next <> t.level then begin
    t.transitions_rev <-
      { from_level = t.level; to_level = next; at_pages_used = pages }
      :: t.transitions_rev;
    t.level <- next;
    Telemetry.Sink.emit_always t.machine.Machine.trace (fun () ->
        Telemetry.Event.Va_pressure
          {
            level = level_label next;
            pages_used = pages;
            budget_pages = t.budget_pages;
          })
  end;
  next

let transitions t = List.rev t.transitions_rev

(* Time-to-exhaustion projection at the observed burn rate, in seconds.
   [None] means the budget is already exhausted (zero remaining) would
   be wrong — exhausted now is 0 seconds — so [None] is reserved for a
   zero rate, where the budget is never exhausted. *)
let seconds_until_exhaustion t ~pages_per_second =
  if Float.is_nan pages_per_second || pages_per_second < 0. then
    invalid_arg "Va_budget.seconds_until_exhaustion: pages_per_second < 0";
  if pages_per_second = 0. then None
  else
    Some
      (Exhaustion.seconds_until_exhaustion
         ~va_bytes:(float_of_int (remaining_pages t * Addr.page_size))
         ~page_bytes:Addr.page_size ~pages_per_second)

let hours_until_exhaustion t ~pages_per_second =
  Option.map
    (fun s -> s /. 3600.)
    (seconds_until_exhaustion t ~pages_per_second)
