(* The simulated-cycle ledger, recomputed from outside the program: the
   [Vmm.Cost_model] fields priced against a [Vmm.Stats] snapshot, one
   part per cost the model charges.  [Cost_model.cycles] is the sum of
   exactly these terms, so [total] must agree with [Machine.cycles] up
   to float summation order. *)

type t = {
  work : float;  (** instructions + loads + stores, times code quality *)
  tlb : float;  (** TLB-miss walks *)
  syscall : float;  (** every syscall kind, protection or not *)
  fault : float;  (** trap delivery *)
  other : float;  (** cache-miss and shootdown penalties (0 by default) *)
}

let zero = { work = 0.; tlb = 0.; syscall = 0.; fault = 0.; other = 0. }

let of_snapshot (c : Vmm.Cost_model.t) (s : Vmm.Stats.snapshot) =
  let f = float_of_int in
  {
    work =
      ((f s.instructions *. c.instr_cost)
      +. (f s.loads *. c.load_cost)
      +. (f s.stores *. c.store_cost))
      *. c.code_quality;
    tlb = f s.tlb_misses *. c.tlb_miss_penalty;
    syscall = f (Vmm.Stats.total_syscalls s) *. c.syscall_cost;
    fault = f s.faults *. c.fault_cost;
    other =
      (f s.cache_misses *. c.cache_miss_penalty)
      +. (f s.tlb_shootdowns *. c.shootdown_cost);
  }

let add a b =
  {
    work = a.work +. b.work;
    tlb = a.tlb +. b.tlb;
    syscall = a.syscall +. b.syscall;
    fault = a.fault +. b.fault;
    other = a.other +. b.other;
  }

let total l = l.work +. l.tlb +. l.syscall +. l.fault +. l.other

(* Sums over thousands of machines reassociate the float additions, so
   agreement is relative, not bitwise. *)
let agrees l ~cycles =
  Float.abs (total l -. cycles) <= 1e-9 *. Float.max 1. (Float.abs cycles)

let share part l = if total l > 0. then part /. total l else 0.
