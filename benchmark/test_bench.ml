open Danguard_bench

let feq = Alcotest.float 1e-12
let floats n f = List.init n (fun i -> f (i + 1))

(* ---- order statistics ---- *)

let test_percentile () =
  let xs = floats 100 float_of_int in
  Alcotest.check feq "p50 of 1..100" 50. (Sample.percentile 50. xs);
  Alcotest.check feq "p99 of 1..100" 99. (Sample.percentile 99. xs);
  Alcotest.check feq "p100 is the max" 100. (Sample.percentile 100. xs);
  Alcotest.check feq "p0 is the min" 1. (Sample.percentile 0. xs);
  Alcotest.check feq "order does not matter" 3. (Sample.percentile 50. [ 5.; 1.; 3.; 4.; 2. ])

let test_tail_percentile () =
  let level xs = Option.map fst (Sample.tail_percentile xs) in
  Alcotest.(check (option (float 0.))) "1000 samples keep ten beyond p99" (Some 99.)
    (level (floats 1000 float_of_int));
  Alcotest.(check (option (float 0.))) "999 samples only keep ten beyond p95" (Some 95.)
    (level (floats 999 float_of_int));
  Alcotest.(check (option (float 0.))) "100 samples: p90 leaves exactly ten" (Some 90.)
    (level (floats 100 float_of_int));
  Alcotest.(check (option (float 0.))) "too few for any tail" None
    (level (floats 19 float_of_int));
  match Sample.tail_percentile (floats 10_000 float_of_int) with
  | Some (p, v) ->
    Alcotest.check feq "p99.9 of 1..10000" 99.9 p;
    Alcotest.check feq "value at p99.9" 9990. v
  | None -> Alcotest.fail "expected a tail percentile"

let test_median_quartiles () =
  Alcotest.check feq "odd median" 3. (Sample.median [ 1.; 5.; 3. ]);
  Alcotest.check feq "even median" 2.5 (Sample.median [ 4.; 1.; 2.; 3. ]);
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Sample.quartiles (floats 10 float_of_int) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "q3" 8.25 q3

let test_geomean () =
  Alcotest.check feq "geomean 2 8" 4. (Sample.geomean [ 2.; 8. ]);
  Alcotest.check (Alcotest.float 1e-9) "geomean of ratios" 2. (Sample.geomean [ 1.; 2.; 4. ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Sample.geomean: non-positive sample")
    (fun () -> ignore (Sample.geomean [ 1.; 0. ]))

(* ---- the compare rule ---- *)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.label v))
    ( = )

let decide ?(direction = Verdict.Lower) ?(bound = 0.1) parent change =
  Verdict.decide ~direction ~bound ~parent ~change

let scaled parent factors = List.map2 ( *. ) parent factors

let test_compare_rule () =
  (* Parents spread 10% by seed; pairing takes that out. *)
  let parent = floats 10 (fun i -> 100. +. float_of_int i) in
  Alcotest.check verdict "fewer than 10 pairs" Verdict.Unresolved
    (decide [ 1.; 2. ] [ 1.; 2. ]);
  Alcotest.check verdict "same runs" Verdict.Unchanged (decide parent parent);
  Alcotest.check verdict "every pair 2% lower" Verdict.Improved
    (decide parent (List.map (fun x -> x *. 0.98) parent));
  (* Nine small wins and one large loss: the median gain stays inside
     the spread of the per-pair changes. *)
  let shaky = floats 10 (fun i -> if i = 10 then 1.1 else 1. -. (0.001 *. float_of_int i)) in
  Alcotest.check verdict "gain within the pair noise" Verdict.Unchanged
    (decide parent (scaled parent shaky));
  Alcotest.check verdict "higher is better: lower is worse" Verdict.Regressed
    (decide ~direction:Verdict.Higher parent (List.map (fun x -> x *. 0.8) parent));
  Alcotest.check verdict "within the bound" Verdict.Unchanged
    (decide parent (List.map (fun x -> x *. 1.05) parent));
  (* 8 of 10 wins is not enough, whatever the medians say. *)
  let mixed = List.mapi (fun i x -> if i < 2 then x +. 1. else x -. 30.) parent in
  Alcotest.check verdict "8/10 wins" Verdict.Unchanged (decide parent mixed);
  let noisy = floats 10 (fun i -> if i mod 2 = 0 then 0.5 else 1.6) in
  Alcotest.check verdict "pair noise wider than the bound" Verdict.Unresolved
    (decide parent (scaled parent noisy));
  (* A simulated metric: identical by seed, so any worsening counts. *)
  Alcotest.check verdict "exact: 0.1% worse" Verdict.Regressed
    (decide ~bound:Verdict.exact parent (List.map (fun x -> x *. 1.001) parent));
  Alcotest.check verdict "exact: identical" Verdict.Unchanged
    (decide ~bound:Verdict.exact parent parent)

(* ---- the cycle ledger ---- *)

let test_ledger () =
  let s =
    {
      Vmm.Stats.zero with
      instructions = 1_000;
      loads = 300;
      stores = 200;
      tlb_hits = 450;
      tlb_misses = 50;
      tlb_shootdowns = 3;
      cache_misses = 7;
      syscalls_mmap = 2;
      syscalls_mremap = 5;
      syscalls_mprotect = 4;
      syscalls_munmap = 1;
      syscalls_dummy = 1;
      faults = 2;
    }
  in
  let cost =
    Vmm.Cost_model.(with_shootdown_cost (with_cache_penalty llvm_base 12.) 40.)
  in
  let l = Ledger.of_snapshot cost s in
  Alcotest.check (Alcotest.float 1e-6) "work" ((1000. +. 450. +. 300.) *. 1.03) l.work;
  Alcotest.check feq "tlb" 1500. l.tlb;
  Alcotest.check feq "syscalls" (13. *. 2500.) l.syscall;
  Alcotest.check feq "faults" 8000. l.fault;
  Alcotest.check feq "other" ((7. *. 12.) +. (3. *. 40.)) l.other;
  let cycles = Vmm.Cost_model.cycles cost s in
  Alcotest.(check bool) "parts sum to Cost_model.cycles" true (Ledger.agrees l ~cycles);
  Alcotest.(check bool) "a missing part is caught" false
    (Ledger.agrees { l with fault = 0. } ~cycles)

(* ---- seeded inputs ---- *)

let test_inputs_seeded () =
  let a = Inputs.servers ~seed:7 ~connections:500 in
  Alcotest.(check (array int)) "servers: same seed" a (Inputs.servers ~seed:7 ~connections:500);
  Alcotest.(check bool) "servers: other seed" false (a = Inputs.servers ~seed:8 ~connections:500);
  Alcotest.(check bool) "servers: every daemon appears" true
    (List.for_all (fun d -> Array.mem d a) [ 0; 1; 2; 3; 4 ]);
  let l1 = Inputs.long_lived ~seed:7 ~requests:300 ~startup:200 in
  let l2 = Inputs.long_lived ~seed:7 ~requests:300 ~startup:200 in
  Alcotest.(check bool) "long-lived: same seed" true (l1 = l2);
  Alcotest.(check bool) "long-lived: other seed" false
    (l1 = Inputs.long_lived ~seed:8 ~requests:300 ~startup:200)

(* Every access of the script targets an object that is live at that
   request, inside its bounds: the workload never itself dangles. *)
let test_script_well_formed () =
  let l = Inputs.long_lived ~seed:3 ~requests:400 ~startup:300 in
  let live = Array.make (Array.length l.sizes) false in
  for id = 0 to l.startup - 1 do
    live.(id) <- true
  done;
  for r = 0 to l.requests - 1 do
    for k = 0 to Inputs.allocs_per_request - 1 do
      live.(l.startup + (Inputs.allocs_per_request * r) + k) <- true
    done;
    for k = 0 to Inputs.accesses_per_request - 1 do
      let a = l.accesses.((r * Inputs.accesses_per_request) + k) in
      let id = a lsr Inputs.word_bits and word = a land ((1 lsl Inputs.word_bits) - 1) in
      if not live.(id) then Alcotest.failf "request %d touches dead object %d" r id;
      if word * 8 >= l.sizes.(id) then Alcotest.failf "request %d overruns object %d" r id
    done;
    Array.iter
      (fun id ->
        if not live.(id) then Alcotest.failf "request %d frees dead object %d" r id;
        live.(id) <- false)
      l.dying.(r)
  done

let () =
  Alcotest.run "benchmark"
    [
      ( "sample",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail keeps ten samples beyond" `Quick test_tail_percentile;
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ("verdict", [ Alcotest.test_case "compare rule" `Quick test_compare_rule ]);
      ("ledger", [ Alcotest.test_case "sums to Cost_model.cycles" `Quick test_ledger ]);
      ( "inputs",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_inputs_seeded;
          Alcotest.test_case "script only touches live objects" `Quick test_script_well_formed;
        ] );
    ]
