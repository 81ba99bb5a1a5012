type connection_result = {
  cycles : float;
  va_bytes : int;
  detection : Shadow.Report.t option;
}

let fork_cost_instructions = 100_000

(* The child exits however the handler ends, so even a handler that
   raises something other than a violation gives its pages back. *)
let run_connection ~make_scheme ~handler =
  let scheme = make_scheme () in
  let machine = scheme.Scheme.machine in
  Fun.protect ~finally:(fun () -> Vmm.Machine.exit machine) (fun () ->
      scheme.Scheme.compute fork_cost_instructions;
      let detection =
        match handler scheme with
        | () -> None
        | exception Shadow.Report.Violation report -> Some report
      in
      {
        cycles = Vmm.Machine.cycles machine;
        va_bytes = Vmm.Machine.va_bytes_used machine;
        detection;
      })
