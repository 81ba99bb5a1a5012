(* Structural checks on the MMU translation fast path: counts that
   cannot drift with machine load, gated below.  A TLB-hit load walks no
   page table, and a word load or store does exactly one frame lookup.
   The fast path's host-clock speed is measured by benchmark/. *)

open Vmm
module J = Telemetry.Json

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

(* Prints a section to stdout, returns the JSON block that
   [write_results] embeds under the "fastpath" key. *)
let run () =
  print_endline "\n== MMU fast path (structural) ==";
  let s = structural () in
  List.iter (fun (k, v) -> Printf.printf "  %-34s %d\n" k v) s;
  J.Obj [ ("structural", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s)) ]
