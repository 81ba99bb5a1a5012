(* Heavy-tailed request sizes: mostly small pages, occasional large
   downloads (the classic web-server distribution). *)
let request_blocks rng =
  match Workload.Prng.below rng 100 with
  | n when n < 70 -> 1 + Workload.Prng.below rng 4 (* small page *)
  | n when n < 95 -> 8 + Workload.Prng.below rng 24 (* asset *)
  | _ -> 64 + Workload.Prng.below rng 192 (* large download *)

let handler blocks (scheme : Runtime.Scheme.t) =
  let req = scheme.Runtime.Scheme.malloc ~site:"latency:request" 512 in
  Runtime.Workload_api.fill_words scheme req ~words:16 ~value:blocks;
  let buf = scheme.Runtime.Scheme.malloc ~site:"latency:sendbuf" 4096 in
  for block = 1 to blocks do
    Runtime.Workload_api.fill_words scheme buf ~words:64 ~value:block;
    scheme.Runtime.Scheme.compute 40_000
  done;
  scheme.Runtime.Scheme.free buf;
  scheme.Runtime.Scheme.free req

(* The request sizes are drawn up front, one per connection index, in
   the order a sequential server would draw them, so every config sees
   the same request sequence. *)
let measure ?(connections = 120) config =
  let rng = Workload.Prng.create ~seed:271828 in
  let blocks = Array.init connections (fun _ -> request_blocks rng) in
  let r =
    Danguard_farm.Farm.run
      ~make_scheme:(fun ~shard:_ ~trace () ->
        Experiment.make_scheme config ~trace ())
      ~handler:(fun conn -> handler blocks.(conn))
      ~shards:1 ~connections ()
  in
  (config, r.Danguard_farm.Farm.latency)

let study ?connections () =
  List.map
    (fun config -> measure ?connections config)
    Runtime.Scheme_spec.[ native; llvm_base; ours ]

let render dists =
  let open Telemetry.Histogram in
  let base =
    match List.assoc_opt Runtime.Scheme_spec.llvm_base dists with
    | Some q -> q
    | None -> snd (List.hd dists)
  in
  let cells (config, q) =
    [
      Runtime.Scheme_spec.label config;
      Table.fmt_cycles q.q50;
      Table.fmt_cycles q.q95;
      Table.fmt_cycles q.q99;
      Table.fmt_cycles q.q_mean;
      Table.fmt_ratio (q.q50 /. base.q50);
      Table.fmt_ratio (q.q99 /. base.q99);
    ]
  in
  Table.render
    ~headers:[ "Scheme"; "p50"; "p95"; "p99"; "mean"; "p50 ratio"; "p99 ratio" ]
    (List.map cells dists)
