type 'a outcome = ('a, Fault_plan.error) result

let kind_of_call = function
  | Fault_plan.Mmap | Fault_plan.Mmap_fixed -> Stats.Sys_mmap
  | Fault_plan.Mremap -> Stats.Sys_mremap
  | Fault_plan.Mprotect -> Stats.Sys_mprotect
  | Fault_plan.Munmap -> Stats.Sys_munmap

let trace_fault (m : Machine.t) name error =
  if Telemetry.Sink.enabled m.trace then
    Telemetry.Sink.emit_always m.trace (fun () ->
        Telemetry.Event.Syscall_fault
          {
            name;
            errno =
              Fault_plan.errno_label
                (match error with
                 | Fault_plan.Transient e | Fault_plan.Fatal e -> e);
            transient = Fault_plan.is_transient error;
          })

(* An injected failure still crosses into the kernel (the real syscall
   returns -1 after doing the work of rejecting you), so it costs a
   kernel round trip: the per-kind syscall counter feeds the cost model
   exactly as a successful call would. *)
let inject (m : Machine.t) call name =
  match
    Fault_plan.decide m.fault_plan call ~va_bytes:(Machine.va_bytes_used m)
  with
  | None -> None
  | Some error ->
    Stats.count_syscall m.stats (kind_of_call call);
    Stats.count_syscall_failed m.stats;
    trace_fault m name error;
    Some error

(* The raw kernel layer rejects malformed requests (unaligned address,
   non-positive page count, pages outside the mapping) by raising
   [Invalid_argument]; at this boundary those become typed EINVAL
   results.  The kernel validates before mutating, so an EINVAL return
   leaves the machine unchanged. *)
let einval (m : Machine.t) name : 'a outcome =
  let error = Fault_plan.Fatal Fault_plan.Einval in
  Stats.count_syscall_failed m.stats;
  trace_fault m name error;
  Error error

(* Every entry point: consult the plan, then run the raw call with its
   [Invalid_argument] rejections typed.  This is the one place that
   decides which calls are injectable, counted as failures and traced. *)
let issue m call name thunk =
  match inject m call name with
  | Some e -> Error e
  | None -> (
    match thunk () with
    | v -> Ok v
    | exception Invalid_argument _ -> einval m name)

let mmap m ~pages =
  issue m Fault_plan.Mmap "mmap" (fun () -> Kernel.mmap m ~pages)

let mmap_fixed m ~addr ~pages =
  issue m Fault_plan.Mmap_fixed "mmap_fixed" (fun () ->
      Kernel.mmap_fixed m ~addr ~pages)

let mremap_alias m ~src ~pages =
  issue m Fault_plan.Mremap "mremap" (fun () ->
      Kernel.mremap_alias m ~src ~pages)

let mremap_alias_slab m ~src ~pages ~copies =
  issue m Fault_plan.Mremap "mremap_slab" (fun () ->
      Kernel.mremap_alias_slab m ~src ~pages ~copies)

let mremap_alias_at m ~src ~dst ~pages =
  issue m Fault_plan.Mremap "mremap" (fun () ->
      Kernel.mremap_alias_at m ~src ~dst ~pages)

let mprotect m ~addr ~pages perm =
  issue m Fault_plan.Mprotect "mprotect" (fun () ->
      Kernel.mprotect m ~addr ~pages perm)

let munmap m ~addr ~pages =
  issue m Fault_plan.Munmap "munmap" (fun () -> Kernel.munmap m ~addr ~pages)

let ok_or_raise ~name = function
  | Ok v -> v
  | Error error -> raise (Fault_plan.Syscall_failure { name; error })

(* Pure range merging for batched retirement: sort page-aligned
   [(base, pages)] ranges and fuse adjacent or overlapping ones, so an
   epoch's worth of per-object protection flips becomes the minimum
   number of ranged calls.  No machine state is touched here — this is
   the planning half; the caller issues one syscall per merged run. *)
let coalesce_ranges ranges =
  let ranges =
    List.filter (fun ((_ : Addr.t), pages) -> pages > 0) ranges
  in
  let sorted =
    List.sort (fun (a, _) (b, _) -> compare (a : Addr.t) b) ranges
  in
  let fuse acc (base, pages) =
    match acc with
    | (cur_base, cur_pages) :: rest
      when base <= cur_base + (cur_pages * Addr.page_size) ->
      let cur_end = cur_base + (cur_pages * Addr.page_size) in
      let new_end = max cur_end (base + (pages * Addr.page_size)) in
      (cur_base, (new_end - cur_base) / Addr.page_size) :: rest
    | _ -> (base, pages) :: acc
  in
  List.rev (List.fold_left fuse [] sorted)
