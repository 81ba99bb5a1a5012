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

type server_run = {
  connections : int;
  total_cycles : float;
  mean_cycles_per_connection : float;
  max_va_bytes_per_connection : int;
  total_stats : Vmm.Stats.snapshot;
  detections : int;
}

let serve ~make_scheme ~handler ~connections =
  let total_cycles = ref 0. in
  let max_va = ref 0 in
  let detections = ref 0 in
  let total_stats = ref Vmm.Stats.zero in
  for i = 0 to connections - 1 do
    let result = run_connection ~make_scheme ~handler:(handler i) in
    total_cycles := !total_cycles +. result.cycles;
    if result.va_bytes > !max_va then max_va := result.va_bytes;
    total_stats := Vmm.Stats.sum !total_stats result.stats;
    if result.detection <> None then incr detections
  done;
  {
    connections;
    total_cycles = !total_cycles;
    mean_cycles_per_connection = !total_cycles /. float_of_int (max 1 connections);
    max_va_bytes_per_connection = !max_va;
    total_stats = !total_stats;
    detections = !detections;
  }
