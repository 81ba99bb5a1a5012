(* [run.exe compare PARENT.json... -- CHANGE.json...]: pairs the result
   files of two commits workload by workload, in the order given, and
   applies {!Verdict.decide} to every end-to-end metric: with the bound
   of BENCHMARK.json on the host clock, exactly on the simulated one. *)

module J = Telemetry.Json

type metric = { name : string; direction : Verdict.direction; bound : float }

let metrics_of bench section =
  match J.member section bench with
  | Some (J.List ms) ->
    List.map
      (fun m ->
        let str k = match J.member k m with Some (J.String s) -> s | _ -> "" in
        let bound =
          match J.member "bound" m with
          | Some (J.Float f) -> f
          | Some (J.Int n) -> float_of_int n
          | _ -> 0.
        in
        {
          name = str "name";
          direction = (if str "better" = "higher" then Verdict.Higher else Verdict.Lower);
          bound;
        })
      ms
  | _ -> failwith ("BENCHMARK.json: no " ^ section ^ " list")

let end_to_end bench = metrics_of bench "end_to_end"
let per_layer bench = metrics_of bench "per_layer"

exception Refused of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refused s)) fmt

let pairs_for workload parent change =
  let ps = List.filter (fun (r : Result_file.run) -> r.workload = workload) parent in
  let cs = List.filter (fun (r : Result_file.run) -> r.workload = workload) change in
  if List.length ps <> List.length cs then
    refuse "%s: %d parent runs but %d change runs" workload (List.length ps)
      (List.length cs);
  List.iter2
    (fun (p : Result_file.run) (c : Result_file.run) ->
      if p.run_env.seed <> c.run_env.seed then
        refuse "%s and %s pair different seeds" p.path c.path)
    ps cs;
  (match ps @ cs with
   | [] -> ()
   | first :: rest ->
     List.iter
       (fun (r : Result_file.run) ->
         if not (Result_file.comparable r.run_env first.run_env) then
           refuse "%s was recorded in a different environment than %s" r.path first.path)
       rest);
  (ps, cs)

let value (r : Result_file.run) name =
  match List.assoc_opt name r.values with
  | Some v -> v
  | None -> refuse "%s has no metric %s" r.path name

(* Returns the number of regressed rows; raises [Refused] on runs that
   cannot be compared. *)
let run ~bench ~parent ~change =
  let parent = List.map Result_file.load parent in
  let change = List.map Result_file.load change in
  if parent @ change = [] then refuse "no result files";
  List.iter
    (fun (r : Result_file.run) ->
      if r.traced then refuse "%s is a traced run; compare untraced runs" r.path)
    (parent @ change);
  let workloads =
    List.fold_left
      (fun acc (r : Result_file.run) -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] (parent @ change)
  in
  let paired = List.map (fun w -> (w, pairs_for w parent change)) workloads in
  Printf.printf "%-13s %-22s %14s %14s %9s %9s %7s %6s  %s\n" "workload" "metric" "parent"
    "change" "worse by" "noise" "bound" "wins" "verdict";
  let regressed = ref 0 in
  List.iter
    (fun (workload, (ps, cs)) ->
      List.iter
        (fun m ->
          let p = List.map (fun r -> value r m.name) ps in
          let c = List.map (fun r -> value r m.name) cs in
          let simulated =
            List.for_all (fun (r : Result_file.run) -> List.mem m.name r.simulated) (ps @ cs)
          in
          let bound = if simulated then Verdict.exact else m.bound in
          let v = Verdict.decide ~direction:m.direction ~bound ~parent:p ~change:c in
          if v = Verdict.Regressed then incr regressed;
          let median, noise = Verdict.pair_changes m.direction ~parent:p ~change:c in
          let wins =
            List.fold_left2
              (fun n a b -> if Verdict.better m.direction b a then n + 1 else n)
              0 p c
          in
          Printf.printf "%-13s %-22s %14.6g %14.6g %8.2f%% %8.2f%% %7.2g %3d/%-2d  %s\n"
            workload m.name (Sample.median p) (Sample.median c) (100. *. median)
            (100. *. noise) bound wins (List.length p) (Verdict.label v))
        (end_to_end bench))
    paired;
  !regressed
