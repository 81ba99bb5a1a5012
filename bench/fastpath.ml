(* Microbenchmarks for the MMU translation fast path.

   Seven scenarios cover the hot operations the TLB-first rewrite
   targets: hit/miss translation, word-wide load/store, the exempt
   accessors, and the two pooldestroy-shaped bulk syscalls.  Each run
   reports ns/op next to the hardcoded pre-rewrite baseline (measured on
   the seed implementation, commit dc4a5a5, same container, 2026-08-06)
   so the before/after ratio is visible in every BENCH_results.json.

   Alongside wall time we record *structural* counts that cannot drift
   with machine load: page-table walks per TLB-hit access (must be 0)
   and frame lookups per 8-byte load (must be 1). *)

open Vmm
module J = Telemetry.Json

let time_ns_per_op ~budget f =
  (* Warm up, then calibrate the iteration count to ~[budget] seconds. *)
  for _ = 1 to 1_000 do f () done;
  let calibrate =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 10_000 do f () done;
    (Unix.gettimeofday () -. t0) /. 10_000.
  in
  let n = max 10_000 (int_of_float (budget /. calibrate)) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do f () done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n

(* Each scenario carries its "before": ns/op for the seed (hashtbl page
   table, per-byte access, per-page shootdowns), captured with this same
   timing loop before the rewrite. *)
let scenarios =
  [
    ( "translate+load8/tlb-hit",
      336.0,
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:1 in
        Mmu.store m a ~width:8 42;
        fun () -> ignore (Mmu.load m a ~width:8) );
    ( "translate+load8/tlb-miss",
      458.7,
      fun () ->
        (* Walk 256 pages with a 64-entry TLB: ~every access misses. *)
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:256 in
        let i = ref 0 in
        fun () ->
          ignore (Mmu.load m (a + (!i * Addr.page_size)) ~width:8);
          i := (!i + 41) land 255 );
    ( "store8/tlb-hit",
      336.3,
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:1 in
        fun () -> Mmu.store m a ~width:8 7 );
    ( "load1/tlb-hit",
      94.3,
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:1 in
        fun () -> ignore (Mmu.load m a ~width:1) );
    ( "load8/exempt",
      426.2,
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:1 in
        fun () -> ignore (Mmu.load_exempt m a ~width:8) );
    ( "mprotect/64-pages",
      4751.2,
      fun () ->
        (* Pooldestroy-shaped: flip a 64-page run's protection. *)
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:64 in
        let rw = ref false in
        fun () ->
          rw := not !rw;
          Kernel.mprotect m ~addr:a ~pages:64
            (if !rw then Perm.Read_write else Perm.No_access) );
    ( "munmap+mmap_fixed/64-pages",
      69916.0,
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:64 in
        fun () ->
          Kernel.munmap m ~addr:a ~pages:64;
          Kernel.mmap_fixed m ~addr:a ~pages:64 );
  ]

(* Structural counters: machine-load-proof evidence that the fast path
   does what the design says, gated below: a TLB-hit load walks no page
   table, and a word load or store does exactly one frame lookup. *)
let structural () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  ignore (Mmu.load m a ~width:8);
  (* warm *)
  let walks0 = Page_table.walk_count m.Machine.page_table in
  let frames0 = Frame_table.lookup_count m.Machine.frames in
  ignore (Mmu.load m a ~width:8);
  let walks_per_hit_load = Page_table.walk_count m.Machine.page_table - walks0 in
  let frames_per_load8 = Frame_table.lookup_count m.Machine.frames - frames0 in
  let frames1 = Frame_table.lookup_count m.Machine.frames in
  Mmu.store m a ~width:8 7;
  let frames_per_store8 = Frame_table.lookup_count m.Machine.frames - frames1 in
  Gate.require (walks_per_hit_load = 0)
    "fastpath: TLB-hit load walked the page table";
  Gate.require (frames_per_load8 = 1)
    "fastpath: 8-byte load did not do exactly one frame lookup";
  Gate.require (frames_per_store8 = 1)
    "fastpath: 8-byte store did not do exactly one frame lookup";
  [
    ("page_table_walks_per_tlb_hit_load", walks_per_hit_load);
    ("frame_lookups_per_load8", frames_per_load8);
    ("frame_lookups_per_store8", frames_per_store8);
  ]

(* Run everything: prints a section to stdout, returns the JSON block
   that [write_results] embeds under the "fastpath" key. *)
let run ~smoke () =
  print_endline "\n== MMU fast path (ns/op, before = seed implementation) ==";
  let budget = if smoke then 0.02 else 0.15 in
  let rows =
    List.map
      (fun (name, before, setup) ->
        let after = time_ns_per_op ~budget (setup ()) in
        Printf.printf "  %-28s %8.1f -> %7.1f   (%.1fx)\n%!" name before after
          (before /. after);
        J.Obj
          [
            ("name", J.String name);
            ("before_ns", J.Float before);
            ("after_ns", J.Float after);
            ("speedup", J.Float (before /. after));
          ])
      scenarios
  in
  let s = structural () in
  List.iter (fun (k, v) -> Printf.printf "  %-34s %d\n" k v) s;
  J.Obj
    [
      ("rows", J.List rows);
      ("structural", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s));
    ]
