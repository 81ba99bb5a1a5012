(* The benchmark's command line.

     run.exe --workload W --seed N --seconds S --trace 0|1 [--out F] [--trace-file F]
     run.exe --smoke [--bench BENCHMARK.json]
     run.exe compare [--bench BENCHMARK.json] PARENT.json... -- CHANGE.json...

   A run prints [<workload> <metric> <value> <unit>] per metric, then, as
   its last line, one JSON object with the keys correct, attempted,
   failed and metrics. *)

open Danguard_bench

let usage =
  "run.exe --workload (servers|olden-alloc|access-heavy|long-lived) --seed N \
   --seconds S --trace 0|1 [--out FILE] [--trace-file FILE]\n\
   run.exe --smoke [--bench BENCHMARK.json]\n\
   run.exe compare [--bench BENCHMARK.json] PARENT.json... -- CHANGE.json..."

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("run.exe: " ^ s); exit 2) fmt

let write_file path contents =
  let rec mkdir_p d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let print_result (r : Measure.result) =
  List.iter
    (fun (k, (v : Measure.value)) ->
      Printf.printf "%s %s %s %s\n" r.workload k (Result_file.float_repr v.v) v.unit_)
    r.metrics;
  List.iter (fun n -> prerr_endline ("failure: " ^ n)) r.notes;
  Printf.printf "%s fail_ratio %s fraction (%d failed of %d attempted)\n" r.workload
    (Result_file.float_repr (float_of_int r.failed /. float_of_int (max 1 r.attempted)))
    r.failed r.attempted

let read_bench path =
  try Result_file.read_json path with Sys_error e | Failure e -> die "%s" e

(* ---- smoke: the whole benchmark in miniature, as a test ---- *)

let smoke ~bench_path =
  let bench = read_bench bench_path in
  let names ms = List.sort compare (List.map (fun (m : Compare.metric) -> m.name) ms) in
  let e2e = names (Compare.end_to_end bench) and layer = names (Compare.per_layer bench) in
  let ok = ref true in
  let check cond fmt =
    Printf.ksprintf (fun s -> if not cond then (ok := false; prerr_endline ("smoke: " ^ s))) fmt
  in
  List.iter
    (fun (w : Workloads.t) ->
      let t0 = Probe.now () in
      let run traced = Measure.run w ~seed:1 ~seconds:0. ~traced ~smoke:true in
      let u = run false in
      let t = run true in
      Printf.printf "smoke: %s in %.2f s\n" w.name (float_of_int (Probe.now () - t0) /. 1e9);
      List.iter
        (fun (r : Measure.result) ->
          check (r.failed = 0) "%s: %d of %d attempts failed: %s" w.name r.failed
            r.attempted (String.concat "; " r.notes);
          let printed = List.sort compare (List.map fst r.metrics) in
          let want = if r.traced then layer else e2e in
          check (printed = want) "%s: metrics printed differ from BENCHMARK.json (%s)"
            w.name
            (String.concat ","
               (List.filter (fun m -> not (List.mem m want)) printed
               @ List.filter (fun m -> not (List.mem m printed)) want));
          List.iter
            (fun (k, (v : Measure.value)) ->
              check (Float.is_finite v.v) "%s: %s is not finite" w.name k)
            r.metrics)
        [ u; t ];
      (* [u] takes them from its warm-up, [t] from a traced pass. *)
      check (u.simulated = t.simulated && u.programs = t.programs)
        "%s: simulated metrics differ between traced and untraced runs" w.name)
    Workloads.all;
  if !ok then print_endline "smoke: ok" else exit 1

(* ---- compare ---- *)

let compare_cmd args =
  let bench_path, args =
    match args with "--bench" :: p :: rest -> (p, rest) | _ -> ("BENCHMARK.json", args)
  in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die "compare: expected PARENT.json... -- CHANGE.json...\n%s" usage
  in
  let parent, change = split [] args in
  match Compare.run ~bench:(read_bench bench_path) ~parent ~change with
  | 0 -> ()
  | _ -> exit 1
  | exception Compare.Refused msg -> die "compare refused: %s" msg
  | exception (Failure msg | Sys_error msg) -> die "compare: %s" msg

(* ---- a measured run ---- *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare_cmd rest
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
    let out = ref "" and trace_file = ref "" and smoke_mode = ref false in
    let bench_path = ref "BENCHMARK.json" in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N seed for the generated inputs (default 1)");
        ("--seconds", Arg.Set_float seconds, "S measuring time per run (default 10)");
        ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
        ("--out", Arg.Set_string out, "FILE write the full result (for compare)");
        ( "--trace-file",
          Arg.Set_string trace_file,
          "FILE Chrome trace of a traced run (default _bench/trace-<workload>.json)" );
        ("--smoke", Arg.Set smoke_mode, " run every workload in miniature and check it");
        ("--bench", Arg.Set_string bench_path, "FILE BENCHMARK.json (for --smoke)");
      ]
      (fun a -> die "unexpected argument %S\n%s" a usage)
      usage;
    if !smoke_mode then smoke ~bench_path:!bench_path
    else begin
      let w =
        match Workloads.find !workload with
        | Some w -> w
        | None -> die "unknown workload %S\n%s" !workload usage
      in
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      if not (!seconds >= 0.) then die "--seconds must be non-negative";
      let traced = !trace = 1 in
      let r = Measure.run w ~seed:!seed ~seconds:!seconds ~traced ~smoke:false in
      print_result r;
      if !out <> "" then write_file !out (Result_file.to_string (Result_file.full r) ^ "\n");
      if traced then begin
        let path =
          if !trace_file <> "" then !trace_file
          else Printf.sprintf "_bench/trace-%s.json" w.name
        in
        write_file path (Result_file.to_string (Probe.chrome_trace ()))
      end;
      print_endline (Result_file.to_string (Result_file.summary r))
    end
