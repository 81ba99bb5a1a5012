type connection_result = {
  cycles : float;
  va_bytes : int;
  peak_frames : int;
  stats : Vmm.Stats.snapshot;
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
        peak_frames = Vmm.Frame_table.peak_frames machine.Vmm.Machine.frames;
        stats = Vmm.Stats.snapshot machine.Vmm.Machine.stats;
        detection;
      })
