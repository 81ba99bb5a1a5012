(* The bench's invariants.  Each section checks them on its typed
   results, where it computes them; main.ml writes BENCH_results.json
   first, then prints every failure and exits nonzero, so a broken
   invariant fails the full-scale run and --smoke alike. *)

let failed = ref []

let fail msg = failed := msg :: !failed

let require ok fmt = Printf.ksprintf (fun msg -> if not ok then fail msg) fmt

let failures () = List.rev !failed
