(** The fork-per-connection server model (§4.3).

    All five servers the paper studies fork a fresh process per client
    connection (tftpd even per command), so any virtual-address wastage
    within a connection dies with the child.  We model each connection
    as a fresh machine + scheme: the handler runs, and we harvest the
    child's cycles, its virtual-address consumption, and any detections.
    A fixed fork cost is charged to every connection.  This module is
    the per-child primitive only; the server loop that calls it is
    [Danguard_farm.Farm.run]. *)

type connection_result = {
  cycles : float;          (** simulated cycles spent by the child *)
  va_bytes : int;          (** virtual address space the child consumed *)
  detection : Shadow.Report.t option;
      (** the report, if the handler tripped a violation *)
}

val fork_cost_instructions : int
(** Instructions charged per fork (~100us of 2006-era fork+exec work). *)

val run_connection :
  make_scheme:(unit -> Scheme.t) ->
  handler:(Scheme.t -> unit) ->
  connection_result
(** Fork: build a fresh child scheme, run the handler, read the
    child's cycles and VA use, then {!Vmm.Machine.exit} the child's machine, so the next connection
    on this domain reuses its page buffers.  A
    {!Shadow.Report.Violation} from the handler is caught and recorded
    (the child dies; the server lives on).  Other exceptions propagate,
    after the exit.  The machine's counters, clock and VA use stay
    readable; its memory does not. *)
