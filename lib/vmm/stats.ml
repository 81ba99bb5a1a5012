type syscall_kind =
  | Sys_mmap
  | Sys_mremap
  | Sys_mprotect
  | Sys_munmap
  | Sys_dummy

(* The machine's event counters ARE telemetry counters: every count_*
   site below writes straight into a [Telemetry.Metrics] registry
   through handles cached at creation time, so the hot path stays one
   mutable-field update and there is no separate sync step — the
   registry exporters always see the live values. *)
type t = {
  registry : Telemetry.Metrics.t;
  instructions : Telemetry.Metrics.counter;
  loads : Telemetry.Metrics.counter;
  stores : Telemetry.Metrics.counter;
  tlb_hits : Telemetry.Metrics.counter;
  tlb_misses : Telemetry.Metrics.counter;
  tlb_flushes : Telemetry.Metrics.counter;
  tlb_shootdowns : Telemetry.Metrics.counter;
  tlb_shootdown_pages : Telemetry.Metrics.counter;
  cache_hits : Telemetry.Metrics.counter;
  cache_misses : Telemetry.Metrics.counter;
  syscalls_mmap : Telemetry.Metrics.counter;
  syscalls_mremap : Telemetry.Metrics.counter;
  syscalls_mprotect : Telemetry.Metrics.counter;
  syscalls_munmap : Telemetry.Metrics.counter;
  syscalls_dummy : Telemetry.Metrics.counter;
  faults : Telemetry.Metrics.counter;
  syscalls_failed : Telemetry.Metrics.counter;
  syscall_retries : Telemetry.Metrics.counter;
  pages_mapped : Telemetry.Metrics.counter;
  frames_allocated : Telemetry.Metrics.counter;
  alloc_ops : Telemetry.Metrics.counter;
  free_ops : Telemetry.Metrics.counter;
}

type snapshot = {
  instructions : int;
  loads : int;
  stores : int;
  tlb_hits : int;
  tlb_misses : int;
  tlb_flushes : int;
  tlb_shootdowns : int;
  tlb_shootdown_pages : int;
  cache_hits : int;
  cache_misses : int;
  syscalls_mmap : int;
  syscalls_mremap : int;
  syscalls_mprotect : int;
  syscalls_munmap : int;
  syscalls_dummy : int;
  faults : int;
  syscalls_failed : int;
  syscall_retries : int;
  pages_mapped : int;
  frames_allocated : int;
  alloc_ops : int;
  free_ops : int;
}

let create ?registry () : t =
  let registry =
    match registry with
    | Some r -> r
    | None -> Telemetry.Metrics.create ()
  in
  let c name = Telemetry.Metrics.counter registry ("vmm." ^ name) in
  (* One [let] per counter: a record expression evaluates its fields in
     an unspecified order, and the registry (so every export of it)
     lists the counters in the order they are registered. *)
  let instructions = c "instructions" in
  let loads = c "loads" in
  let stores = c "stores" in
  let tlb_hits = c "tlb_hits" in
  let tlb_misses = c "tlb_misses" in
  let tlb_flushes = c "tlb_flushes" in
  let tlb_shootdowns = c "tlb_shootdowns" in
  let tlb_shootdown_pages = c "tlb_shootdown_pages" in
  let cache_hits = c "cache_hits" in
  let cache_misses = c "cache_misses" in
  let syscalls_mmap = c "syscalls_mmap" in
  let syscalls_mremap = c "syscalls_mremap" in
  let syscalls_mprotect = c "syscalls_mprotect" in
  let syscalls_munmap = c "syscalls_munmap" in
  let syscalls_dummy = c "syscalls_dummy" in
  let faults = c "faults" in
  let syscalls_failed = c "syscalls_failed" in
  let syscall_retries = c "syscall_retries" in
  let pages_mapped = c "pages_mapped" in
  let frames_allocated = c "frames_allocated" in
  let alloc_ops = c "alloc_ops" in
  let free_ops = c "free_ops" in
  { registry; instructions; loads; stores; tlb_hits; tlb_misses; tlb_flushes;
    tlb_shootdowns; tlb_shootdown_pages; cache_hits; cache_misses;
    syscalls_mmap; syscalls_mremap; syscalls_mprotect; syscalls_munmap;
    syscalls_dummy; faults; syscalls_failed; syscall_retries; pages_mapped;
    frames_allocated; alloc_ops; free_ops }

let registry (t : t) = t.registry

let count_instructions (t : t) n = Telemetry.Metrics.incr ~by:n t.instructions
let count_load (t : t) = Telemetry.Metrics.incr t.loads
let count_store (t : t) = Telemetry.Metrics.incr t.stores
let count_tlb_hit (t : t) = Telemetry.Metrics.incr t.tlb_hits
let count_tlb_miss (t : t) = Telemetry.Metrics.incr t.tlb_misses
let count_tlb_flush (t : t) = Telemetry.Metrics.incr t.tlb_flushes

let count_tlb_shootdown (t : t) ~pages =
  Telemetry.Metrics.incr t.tlb_shootdowns;
  Telemetry.Metrics.incr ~by:pages t.tlb_shootdown_pages

let count_cache_hit (t : t) = Telemetry.Metrics.incr t.cache_hits
let count_cache_miss (t : t) = Telemetry.Metrics.incr t.cache_misses

let count_syscall (t : t) = function
  | Sys_mmap -> Telemetry.Metrics.incr t.syscalls_mmap
  | Sys_mremap -> Telemetry.Metrics.incr t.syscalls_mremap
  | Sys_mprotect -> Telemetry.Metrics.incr t.syscalls_mprotect
  | Sys_munmap -> Telemetry.Metrics.incr t.syscalls_munmap
  | Sys_dummy -> Telemetry.Metrics.incr t.syscalls_dummy

let count_fault (t : t) = Telemetry.Metrics.incr t.faults
let count_syscall_failed (t : t) = Telemetry.Metrics.incr t.syscalls_failed
let count_syscall_retry (t : t) = Telemetry.Metrics.incr t.syscall_retries
let count_page_mapped (t : t) = Telemetry.Metrics.incr t.pages_mapped

let count_frame_allocated (t : t) =
  Telemetry.Metrics.incr t.frames_allocated

let count_alloc_op (t : t) = Telemetry.Metrics.incr t.alloc_ops
let count_free_op (t : t) = Telemetry.Metrics.incr t.free_ops

let snapshot (t : t) : snapshot =
  let v = Telemetry.Metrics.counter_value in
  {
    instructions = v t.instructions;
    loads = v t.loads;
    stores = v t.stores;
    tlb_hits = v t.tlb_hits;
    tlb_misses = v t.tlb_misses;
    tlb_flushes = v t.tlb_flushes;
    tlb_shootdowns = v t.tlb_shootdowns;
    tlb_shootdown_pages = v t.tlb_shootdown_pages;
    cache_hits = v t.cache_hits;
    cache_misses = v t.cache_misses;
    syscalls_mmap = v t.syscalls_mmap;
    syscalls_mremap = v t.syscalls_mremap;
    syscalls_mprotect = v t.syscalls_mprotect;
    syscalls_munmap = v t.syscalls_munmap;
    syscalls_dummy = v t.syscalls_dummy;
    faults = v t.faults;
    syscalls_failed = v t.syscalls_failed;
    syscall_retries = v t.syscall_retries;
    pages_mapped = v t.pages_mapped;
    frames_allocated = v t.frames_allocated;
    alloc_ops = v t.alloc_ops;
    free_ops = v t.free_ops;
  }

(* One name/value pair per snapshot field, under the "vmm." namespace —
   the same names the live registry carries. *)
let field_values (s : snapshot) =
  [
    ("vmm.instructions", s.instructions);
    ("vmm.loads", s.loads);
    ("vmm.stores", s.stores);
    ("vmm.tlb_hits", s.tlb_hits);
    ("vmm.tlb_misses", s.tlb_misses);
    ("vmm.tlb_flushes", s.tlb_flushes);
    ("vmm.tlb_shootdowns", s.tlb_shootdowns);
    ("vmm.tlb_shootdown_pages", s.tlb_shootdown_pages);
    ("vmm.cache_hits", s.cache_hits);
    ("vmm.cache_misses", s.cache_misses);
    ("vmm.syscalls_mmap", s.syscalls_mmap);
    ("vmm.syscalls_mremap", s.syscalls_mremap);
    ("vmm.syscalls_mprotect", s.syscalls_mprotect);
    ("vmm.syscalls_munmap", s.syscalls_munmap);
    ("vmm.syscalls_dummy", s.syscalls_dummy);
    ("vmm.faults", s.faults);
    ("vmm.syscalls_failed", s.syscalls_failed);
    ("vmm.syscall_retries", s.syscall_retries);
    ("vmm.pages_mapped", s.pages_mapped);
    ("vmm.frames_allocated", s.frames_allocated);
    ("vmm.alloc_ops", s.alloc_ops);
    ("vmm.free_ops", s.free_ops);
  ]

(* The inverse of [field_values]: values in declaration order.  [zero],
   [diff] and [sum] go through the pair, so a new counter is named in
   [t], [snapshot], [create], [snapshot], [field_values], [of_values]
   and [pp] only. *)
let of_values = function
  | [ instructions; loads; stores; tlb_hits; tlb_misses; tlb_flushes;
      tlb_shootdowns; tlb_shootdown_pages; cache_hits; cache_misses;
      syscalls_mmap; syscalls_mremap; syscalls_mprotect; syscalls_munmap;
      syscalls_dummy; faults; syscalls_failed; syscall_retries; pages_mapped;
      frames_allocated; alloc_ops; free_ops ] ->
    { instructions; loads; stores; tlb_hits; tlb_misses; tlb_flushes;
      tlb_shootdowns; tlb_shootdown_pages; cache_hits; cache_misses;
      syscalls_mmap; syscalls_mremap; syscalls_mprotect; syscalls_munmap;
      syscalls_dummy; faults; syscalls_failed; syscall_retries; pages_mapped;
      frames_allocated; alloc_ops; free_ops }
  | _ -> invalid_arg "Stats.of_values: one value per counter"

let map2 f a b =
  of_values
    (List.map2 (fun (_, x) (_, y) -> f x y) (field_values a) (field_values b))

let diff = map2 ( - )
let sum = map2 ( + )
let zero = snapshot (create ())

let snapshot_to_json s =
  Telemetry.Json.Obj
    (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) (field_values s))

let total_syscalls s =
  s.syscalls_mmap + s.syscalls_mremap + s.syscalls_mprotect + s.syscalls_munmap
  + s.syscalls_dummy

let protection_syscalls s =
  s.syscalls_mremap + s.syscalls_mprotect + s.syscalls_munmap

let heap_ops s = s.alloc_ops + s.free_ops

(* The batching win as one number: protection syscalls divided by heap
   operations.  [None] when the snapshot saw no allocator traffic, so
   exporters can distinguish "no data" from a true zero. *)
let syscalls_per_op s =
  let ops = heap_ops s in
  if ops = 0 then None
  else Some (float_of_int (protection_syscalls s) /. float_of_int ops)

let pp ppf s =
  Format.fprintf ppf
    "@[<v>instructions: %d@ loads: %d@ stores: %d@ tlb hits/misses: %d/%d@ \
     tlb shootdowns: %d (%d pages)@ cache hits/misses: %d/%d@ \
     syscalls (mmap/mremap/mprotect/munmap/dummy): %d/%d/%d/%d/%d@ faults: \
     %d@ syscalls failed/retried: %d/%d@ pages mapped: %d@ frames \
     allocated: %d@ heap ops (alloc/free): %d/%d@]"
    s.instructions s.loads s.stores s.tlb_hits s.tlb_misses s.tlb_shootdowns
    s.tlb_shootdown_pages s.cache_hits
    s.cache_misses s.syscalls_mmap
    s.syscalls_mremap s.syscalls_mprotect s.syscalls_munmap s.syscalls_dummy
    s.faults s.syscalls_failed s.syscall_retries s.pages_mapped
    s.frames_allocated s.alloc_ops s.free_ops
