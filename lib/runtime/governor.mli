(** Graceful-degradation governor for the shadow-page runtime.

    The detection guarantee depends on three syscalls per object
    lifetime ([mremap] at malloc, [mprotect] at free, [munmap]/recycle
    at pooldestroy).  When the kernel starts refusing them, a server
    that treats every failure as fatal turns a transient resource blip
    into an outage.  The governor instead steps the scheme down a
    configurable ladder of rungs, by default

    {v Full  -->  Sampled (1-in-N, GWP-ASan-style)  -->  Passthrough v}

    and — when the runtime wires in the pointer-tagging backend — a
    {e backend} ladder such as

    {v Full (shadow)  -->  Tagged (software checks)  -->  Passthrough v}

    and back up when the syscalls recover.  Every transition is
    recorded (cycle clock + allocation sequence number) and emitted as
    a telemetry [Mode_change], so any detection miss can be attributed
    to a specific degradation window — the scheme never {e silently}
    loses its guarantee.

    Down-shifts trigger on failure density: at least
    [failure_threshold] failures among the last [window] protected
    operations.  Up-shifts need [recover_after] consecutive successes
    {e and} [cooldown] allocations since the last transition (so a
    bursty fault pattern cannot make the ladder oscillate).
    Passive rungs ([Passthrough], [Tagged]) perform no protected
    syscalls at all, so they recover via an explicit probe every
    [probe_every] allocations; each failed
    probe (one that slides straight back to a passive rung) doubles the
    next probe interval, so a persistent fault storm cannot make the
    ladder flap at a fixed frequency.  Crossing
    [va_soft_budget] bytes of mapped address space permanently clamps
    the ladder below [Full] — address space never shrinks, so
    unconditional shadowing must not resume. *)

type mode =
  | Full  (** every object shadowed and protected *)
  | Sampled of int  (** 1 in [n] objects shadowed *)
  | Tagged
      (** the pointer-tagging backend carries detection: software tag
          checks, no shadow syscalls, no VA growth.  A {e passive} rung
          from the governor's perspective — it generates no protected
          syscall traffic, so recovery is probe-driven. *)
  | Passthrough  (** no shadowing at all *)

val mode_label : mode -> string

val is_passive : mode -> bool
(** Rungs that perform no protected shadow operations ([Tagged],
    [Passthrough]) and therefore recover only via probes. *)

type config = {
  sample_period : int;  (** [N] of [Sampled]'s 1-in-N *)
  failure_threshold : int;  (** failures in the window that trip a shift *)
  window : int;  (** sliding window length, in protected ops *)
  recover_after : int;  (** consecutive successes to step back up *)
  probe_every : int;  (** allocs between passive-rung recovery probes *)
  cooldown : int;  (** min allocs between transitions (up-shifts) *)
  va_soft_budget : int;  (** mapped-bytes ceiling for [Full] mode *)
  ladder : mode list;
      (** explicit rung order, most- to least-protected; must start at
          [Full] and contain no duplicates.  [[]] (the default) means
          the classic [Full; Sampled sample_period; Passthrough]. *)
}

val default_config : config

val backend_ladder : mode list
(** [[Full; Tagged; Passthrough]] — step {e backends}, not sample
    rates: shadow paging while syscalls are healthy, pointer tagging
    when they are not, raw only as the last resort. *)

type transition = {
  at_cycles : float;
  alloc_seq : int;
  from_mode : mode;
  to_mode : mode;
  reason : string;
}

type t

val create : ?config:config -> Vmm.Machine.t -> t
(** Starts in [Full].  Raises [Invalid_argument] on a config that could
    never trip or never recover. *)

val mode : t -> mode

val ladder : t -> mode list
(** The resolved rung order this governor walks. *)

val backend : t -> [ `Shadow | `Tagged | `Raw ]
(** Which detection backend the current rung routes allocations to:
    [Full]/[Sampled] are shadow paging (sampling decided per-alloc by
    {!should_protect}), [Tagged] is the tag table, [Passthrough] is
    raw. *)

val on_alloc : t -> unit
(** Advance the allocation clock: checks the VA budget and, on passive
    rungs, the recovery probe. Call once per allocation before
    {!should_protect}. *)

val should_protect : t -> bool
(** Whether the current allocation should get a shadow alias. *)

val record_success : t -> unit
(** A protected operation's syscalls all succeeded. *)

val record_failure : t -> reason:string -> unit
(** A protected operation failed (after retries); may step the ladder
    down. *)

val step_down : t -> reason:string -> unit
(** External trip input: force one step down the ladder (no-op in
    [Passthrough]).  Used by the endurance controller when VA pressure
    reaches its degrade watermark — after GC and threshold tightening
    have already been tried — with [reason] (e.g. ["va-pressure"])
    recorded on the transition and in the [Mode_change] event like any
    internal trip. *)

val record_unprotected_free : t -> unit
(** A free had to skip page protection (kept for attribution). *)

val transitions : t -> transition list
(** All mode changes, oldest first. *)

val degraded_windows : t -> (int * int option) list
(** Allocation-sequence intervals during which the mode was not [Full];
    [None] end = still degraded. *)

val unprotected_free_count : t -> int
