(** The MiniC interpreter: executes a (possibly pool-transformed) program
    against any {!Runtime.Scheme.t}, so the same source runs over the
    plain allocator, the shadow-page scheme, or a baseline checker.

    Every field load/store goes through the scheme (and hence the
    simulated MMU); [malloc]/[free] use the scheme's heap;
    [Pool_init]/[Pool_destroy] drive the scheme's pool interface.
    {!run} is the one judged run of a MiniC program: where the scheme
    stops it, {!Workload.Fault_injection.observe} classifies the stop
    and the result names the source site. *)

exception Null_dereference of string
(** [e->f] on a null pointer, with context. *)

exception Runtime_error of string
(** Division by zero, unbound variable, runaway recursion, etc. *)

type outcome = Detected of Shadow.Report.t | Crashed of string
(** How a stopped run ended: {!Workload.Fault_injection.observe}'s
    classification less [Silent], which is a run that returned. *)

type stop = {
  site : string * Ast.pos;
      (** function and position of the load, store, free or allocation
          where the run ended ([Ast.no_pos] at a pool create/destroy) *)
  outcome : outcome;
}

type result = {
  prints : int list;   (** values printed by [print(e)], in order *)
  steps : int;         (** AST evaluation steps executed *)
  stopped : stop option;  (** [None] when [main] returned *)
}

val stop_label : stop -> string
(** The line [compile --run] prints for a stop: [TEMPORAL ERROR
    DETECTED: report], or [UNDETECTED CRASH at f@line:col: msg]. *)

val run : ?max_steps:int -> Ast.program -> Runtime.Scheme.t -> result
(** Execute [main] with no arguments, inside
    {!Workload.Fault_injection.observe}: a {!Shadow.Report.Violation},
    a {!Vmm.Fault.Trap} or a corrupted allocator ends the run with
    [stopped] set, and never escapes.  Errors in the program itself
    raise: {!Null_dereference}, and {!Runtime_error} — also when
    [max_steps] (default 50 million) is exceeded or calls nest deeper
    than 10,000, the brakes for runaway test programs. *)
