(** Multi-day soak: the §3.4 endurance scenario, end to end.

    Simulates days of server uptime — the chosen {!Workload.Servers}
    model handles each connection, while a long-lived pool accumulates
    per-connection session objects with heavy-tailed lifetimes.  Every
    10 connections a dying session's pointer is planted in a simulated
    root ({!Vmm.Roots} global slot) {e before} its free — the
    stale-global case the GC must witness — and every planted pointer is
    then probed through the scheme's guarded load.

    The differential oracle this produces:

    - [missed_probes]: a probe that did {e not} raise
      {!Shadow.Report.Violation} — the detection guarantee broke.
    - [reclaims_with_witness]: a rooted (witnessed) range that the
      conservative GC nevertheless released — must stay zero; the GC is
      only allowed to reclaim ranges its mark phase proved unreferenced.

    Run with [endurance = false] the harness never reclaims: VA burn is
    linear and the run either exhausts [budget_pages] or projects a
    finite time-to-exhaustion.  With [endurance = true] the reuse policy
    (armed with the real {!Shadow.Gc}) plus the watermark escalation
    keep steady-state VA flat while every probe keeps trapping.  With
    [governor = true] as well, a small budget demonstrates the full
    ladder: gc → tighten → degrade, in that order, in [actions]. *)

type config = {
  days : int;
  connections_per_day : int;
  server : string;  (** a {!Workload.Servers} model name, e.g. ["ghttpd"] *)
  seed : int;
  budget_pages : int;
  endurance : bool;  (** reuse policy + watermark escalation armed? *)
  governor : bool;  (** degrade stage wired to a real ladder? *)
}

val default_config : config
(** 4 days x 150 connections of ghttpd under a 6000-page budget, with
    endurance on and no governor. *)

type day_row = {
  day : int;
  va_pages_used : int;
  delta_pages : int;  (** fresh VA pages consumed during this day *)
  freed_shadow_pages : int;
  pinned_ranges : int;
  gc_runs : int;
  reclaimed_pages : int;
  probes : int;
  probes_detected : int;
  mode : string;  (** governor mode label at end of day *)
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
  exhausted : bool;  (** budget fully consumed by the end of the run *)
  projected_hours : float option;
      (** time-to-exhaustion at the final day's burn rate; [None] = flat *)
  first_day_delta_pages : int;
  tail_delta_pages : int;
  actions : (string * string * int) list;
      (** endurance log: action label, level label, pages used *)
  governor_transitions : (string * string * string) list;
      (** from-mode, to-mode, reason *)
  pressure_levels : string list;
      (** va-pressure level transitions, in order *)
}

val run : ?config:config -> unit -> result
(** Deterministic for a given config (seeded PRNG, no wall clock). *)

val check : result -> string list
(** The detection guarantee every soak run must keep, reclaiming or
    not: no missed probe and no reclaimed witnessed range.  One message
    per broken gate; [[]] when both hold. *)
