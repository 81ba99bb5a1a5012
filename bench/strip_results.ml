(* Prints a BENCH_results.json with its host-timed fields removed and
   every object's keys sorted, so two runs of bench/main.exe at the
   same scale print byte-identical output.  The removed fields are the
   only ones that read the host clock: [bechamel] (ns/op figures) and
   the fast-path rows' [before_ns], [after_ns] and [speedup].  Every
   other figure is simulated and deterministic.

     dune exec bench/strip_results.exe -- BENCH_results.json

   [make bench-smoke] diffs this output against bench/golden/smoke.json;
   see bench/golden/README.md for how to regenerate the golden. *)

module J = Telemetry.Json

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("strip_results: " ^ m); exit 1) fmt

let rec sort_keys = function
  | J.Obj kvs ->
    J.Obj
      (List.map (fun (k, v) -> (k, sort_keys v)) kvs
      |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b))
  | J.List l -> J.List (List.map sort_keys l)
  | v -> v

let without keys = function
  | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) kvs)
  | v -> v

let update key f = function
  | J.Obj kvs ->
    J.Obj (List.map (fun (k, v) -> (k, if k = key then f v else v)) kvs)
  | v -> v

let each f = function J.List l -> J.List (List.map f l) | v -> v

let strip doc =
  without [ "bechamel" ] doc
  |> update "fastpath"
       (update "rows" (each (without [ "before_ns"; "after_ns"; "speedup" ])))

let () =
  let file =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_results.json"
  in
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" file e
  in
  match J.of_string text with
  | Ok (J.Obj _ as doc) ->
    print_endline (J.to_string_pretty (sort_keys (strip doc)))
  | Ok _ -> fail "%s is not a JSON object" file
  | Error e -> fail "%s does not parse: %s" file e
