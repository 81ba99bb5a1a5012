type t = {
  name : string;
  instr_cost : float;
  load_cost : float;
  store_cost : float;
  tlb_miss_penalty : float;
  cache_miss_penalty : float;
  shootdown_cost : float;
  syscall_cost : float;
  fault_cost : float;
  code_quality : float;
}

let native =
  {
    name = "native";
    instr_cost = 1.0;
    load_cost = 1.5;
    store_cost = 1.5;
    tlb_miss_penalty = 30.0;
    cache_miss_penalty = 0.0;
    shootdown_cost = 0.0;
    syscall_cost = 2500.0;
    fault_cost = 4000.0;
    code_quality = 1.0;
  }

let llvm_base = { native with name = "llvm-base"; code_quality = 1.03 }
let with_code_quality t q = { t with code_quality = q }
let with_cache_penalty t p = { t with cache_miss_penalty = p }
let with_shootdown_cost t c = { t with shootdown_cost = c }

let cycles t (s : Stats.snapshot) =
  let f = float_of_int in
  let compiled_work =
    (f s.instructions *. t.instr_cost)
    +. (f s.loads *. t.load_cost)
    +. (f s.stores *. t.store_cost)
  in
  (compiled_work *. t.code_quality)
  +. (f s.tlb_misses *. t.tlb_miss_penalty)
  +. (f s.cache_misses *. t.cache_miss_penalty)
  +. (f s.tlb_shootdowns *. t.shootdown_cost)
  +. (f (Stats.total_syscalls s) *. t.syscall_cost)
  +. (f s.faults *. t.fault_cost)
