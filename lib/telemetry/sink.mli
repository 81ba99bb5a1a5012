(** The per-machine trace attachment point.

    Every {!Vmm.Machine.t} carries a sink; instrumentation sites call
    {!emit} with a thunk, so a disabled sink costs one branch and no
    allocation — the always-on budget that keeps the Table-1 numbers
    honest.  An enabled sink stamps events with the machine's
    logical-cycle clock and stores them in a bounded ring.

    Sampling: [sample_every = n] records every n-th {!emit} event.
    {!emit_always} bypasses sampling (but not the enabled check) — used
    for rare, load-bearing events such as violations and pool
    lifecycle. *)

type t

val disabled : unit -> t
(** A sink that records nothing.  The default for every machine. *)

val create : ?capacity:int -> ?sample_every:int -> unit -> t
(** An enabled sink.  [capacity] bounds the ring (default 65536 events);
    [sample_every] is the sampling period (default 1 = record all). *)

val enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Installed by [Vmm.Machine.create]: returns the machine's simulated
    cycle count. *)

val emit : t -> (unit -> Event.kind) -> unit
(** Record one samplable event; the thunk only runs if the event is
    actually recorded. *)

val emit_always : t -> (unit -> Event.kind) -> unit
(** Record regardless of the sampling period (still a no-op when
    disabled). *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val recorded : t -> int
(** Events ever recorded (including those the ring later dropped). *)

val seen : t -> int
(** Samplable emits observed while enabled (recorded or sampled away). *)

val dropped : t -> int
(** Recorded events evicted by ring wraparound. *)

val sample_every : t -> int
val clear : t -> unit
