(** Bounded retry with exponential backoff for the typed syscall
    boundary ({!Vmm.Syscalls}).

    Transient errors ([EAGAIN]-shaped) are retried up to a cap; each
    wait is charged to the simulated machine as instructions, so the
    cost model sees what a real spinning server would pay, and every
    retry increments the [syscall_retries] stat.  Fatal errors are
    returned immediately — retrying an [ENOMEM] that models exhausted
    address space only digs the hole deeper; that is the
    {!Governor}'s problem. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first *)
  backoff_instructions : int;  (** charge before the first retry *)
  backoff_multiplier : int;  (** growth factor per retry *)
  max_backoff_instructions : int;  (** backoff ceiling *)
}

val attempt :
  ?policy:policy ->
  Vmm.Machine.t ->
  (unit -> ('a, Vmm.Fault_plan.error) result) ->
  ('a, Vmm.Fault_plan.error) result
(** [attempt machine f] runs [f] until it returns [Ok], a [Fatal]
    error, or the attempt budget is spent (the last error is
    returned).  The default [policy] is 4 attempts, a 200-instruction
    initial backoff, x4 growth and a 20k cap.  [f] must be safe to re-run after an [Error] — the
    [try_*] operations of {!Shadow.Shadow_heap} / {!Shadow.Shadow_pool}
    guarantee this. *)
