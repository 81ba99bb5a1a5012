(** The MiniC interpreter: executes a (possibly pool-transformed) program
    against any {!Runtime.Scheme.t}, so the same source runs over the
    plain allocator, the shadow-page scheme, or a baseline checker.

    Every field load/store goes through the scheme (and hence the
    simulated MMU); [malloc]/[free] use the scheme's heap;
    [Pool_init]/[Pool_destroy] drive the scheme's pool interface.
    Detected temporal errors surface as {!Shadow.Report.Violation}. *)

exception Null_dereference of string
(** [e->f] on a null pointer, with context. *)

exception Runtime_error of string
(** Division by zero, missing function, unbound variable, etc. *)

type outcome = {
  prints : int list;   (** values printed by [print(e)], in order *)
  steps : int;         (** AST evaluation steps executed *)
}

val run :
  ?max_steps:int ->
  ?on_violation:(fname:string -> pos:Ast.pos -> Shadow.Report.t -> unit) ->
  Ast.program ->
  Runtime.Scheme.t ->
  outcome
(** Execute [main] with no arguments.  Raises
    {!Runtime_error} if [max_steps] (default 50 million) is exceeded —
    the brake for accidentally non-terminating test programs.

    [on_violation] is called (then the violation re-raised) whenever a
    guarded load/store/free traps, with the enclosing function and the
    source position of the dereference or free — the bridge that lets
    the differential soundness oracle match each dynamic violation
    against the static verdict for that site. *)
