open Vmm

(* Instrumentation instructions per checked access, and the slowdown
   of plain computation under dynamic binary translation. *)
let access_check_cost = 60
let dbt_factor = 12.0

type block_state =
  | V_live
  | V_quarantined
  | V_evicted  (** really freed; memory may be re-allocated any time *)

type block = {
  base : Addr.t;
  size : int;
  alloc_site : string;
  mutable free_site : string option;
  mutable state : block_state;
}

type state = {
  quarantine_blocks : int;
  heap : Heap.Freelist_malloc.t;
  by_page : (int, block list ref) Hashtbl.t;
  quarantine : block Queue.t;
  mutable quarantined_bytes : int;
}

let index_block st block =
  for page = Addr.page_index block.base
      to Addr.page_index (block.base + block.size - 1) do
    let cell =
      match Hashtbl.find_opt st.by_page page with
      | Some cell -> cell
      | None ->
        let cell = ref [] in
        Hashtbl.replace st.by_page page cell;
        cell
    in
    (* Most recent first: a re-allocation of reused memory shadows any
       stale freed block — which is precisely the heuristic's blind spot. *)
    cell := block :: !cell
  done

(* Most recently indexed block containing the address. *)
let find_block st addr =
  match Hashtbl.find_opt st.by_page (Addr.page_index addr) with
  | None -> None
  | Some cell ->
    List.find_opt (fun b -> addr >= b.base && addr < b.base + b.size) !cell

let violation kind addr block =
  let object_info =
    Option.map
      (fun b ->
        {
          Shadow.Report.object_id = 0;
          size = b.size;
          offset = addr - b.base;
          alloc_site = b.alloc_site;
          free_site = b.free_site;
        })
      block
  in
  raise (Shadow.Report.Violation { Shadow.Report.kind; fault_addr = addr; object_info })

let charge machine n = Stats.count_instructions machine.Machine.stats n

let malloc st machine ?(site = "<unknown>") size =
  charge machine 50; (* intercept + red-zone painting *)
  let base = Heap.Freelist_malloc.alloc st.heap size in
  let block =
    { base; size; alloc_site = site; free_site = None; state = V_live }
  in
  index_block st block;
  base

let drain_quarantine st =
  while Queue.length st.quarantine > st.quarantine_blocks do
    let victim = Queue.pop st.quarantine in
    st.quarantined_bytes <- st.quarantined_bytes - victim.size;
    victim.state <- V_evicted;
    Heap.Freelist_malloc.dealloc st.heap victim.base
  done

let free st machine ?(site = "<unknown>") addr =
  charge machine 50;
  match find_block st addr with
  | Some ({ state = V_live; _ } as block) when block.base = addr ->
    block.state <- V_quarantined;
    block.free_site <- Some site;
    Queue.push block st.quarantine;
    st.quarantined_bytes <- st.quarantined_bytes + block.size;
    drain_quarantine st
  | Some ({ state = V_quarantined | V_evicted; _ } as block) ->
    violation Shadow.Report.Double_free addr (Some block)
  | Some block -> violation Shadow.Report.Invalid_free addr (Some block)
  | None -> violation Shadow.Report.Invalid_free addr None

let checked_access st machine addr =
  charge machine access_check_cost;
  match find_block st addr with
  | Some { state = V_live; _ } -> ()
  | Some ({ state = V_quarantined | V_evicted; _ } as block) ->
    violation (Shadow.Report.Use_after_free Perm.Read) addr (Some block)
  | None -> violation (Shadow.Report.Wild_access Perm.Read) addr None

let scheme ?(quarantine_blocks = 1000) machine =
  let st =
    {
      quarantine_blocks;
      heap = Heap.Freelist_malloc.create machine;
      by_page = Hashtbl.create 4096;
      quarantine = Queue.create ();
      quarantined_bytes = 0;
    }
  in
  let rec scheme =
    lazy
      {
        Scheme.name = "valgrind-sim";
        machine;
        malloc = (fun ?site size -> malloc st machine ?site size);
        free = (fun ?site a -> free st machine ?site a);
        load =
          (fun addr ~width ->
            checked_access st machine addr;
            Mmu.load machine addr ~width);
        store =
          (fun addr ~width v ->
            checked_access st machine addr;
            Mmu.store machine addr ~width v);
        pool_create =
          (fun ?elem_size:_ () ->
            Scheme.direct_pool (Lazy.force scheme));
        compute =
          (fun n ->
            charge machine (int_of_float (float_of_int n *. dbt_factor)));
        extra_memory_bytes =
          (fun () ->
            (* Shadow validity bits (~1/8 of heap) plus the quarantine. *)
            (Heap.Freelist_malloc.live_bytes st.heap / 8) + st.quarantined_bytes);
        guarantees_detection = false;
        introspection = Scheme.No_introspection;
      }
  in
  Lazy.force scheme
