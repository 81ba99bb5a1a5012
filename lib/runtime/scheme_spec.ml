type t =
  | Native
  | Llvm_base
  | Pa of Schemes.pa_config
  | Shadow_basic
  | Shadow_pool of Schemes.pool_config
  | Shadow_pool_spatial
  | Shadow_pool_inferred
  | Shadow_pool_epoch of Schemes.epoch_config
  | Tagged
  | Backend_ladder
  | Efence
  | Valgrind
  | Capability
  | Recover of t

(* Default-config shortcuts: the spelling consumers use. *)
let native = Native
let llvm_base = Llvm_base
let pa = Pa Schemes.default_pa_config
let pa_dummy = Pa { Schemes.dummy_syscalls = true }
let ours_basic = Shadow_basic
let ours = Shadow_pool Schemes.default_pool_config
let ours_bounds = Shadow_pool_spatial
let ours_inferred = Shadow_pool_inferred
let ours_epoch = Shadow_pool_epoch Schemes.default_epoch_config
let tagged = Tagged
let ladder = Backend_ladder
let efence = Efence
let valgrind = Valgrind
let capability = Capability

let all =
  [ native; llvm_base; pa; pa_dummy; ours_basic; ours; ours_bounds;
    ours_inferred; ours_epoch; tagged; ladder; efence; valgrind; capability;
    Recover ours ]

let rec to_string = function
  | Native -> "native"
  | Llvm_base -> "llvm"
  | Pa { Schemes.dummy_syscalls = false } -> "pa"
  | Pa { Schemes.dummy_syscalls = true } -> "pa-dummy"
  | Shadow_basic -> "ours-basic"
  | Shadow_pool _ -> "ours"
  | Shadow_pool_spatial -> "ours-bounds"
  | Shadow_pool_inferred -> "ours-inferred"
  | Shadow_pool_epoch _ -> "ours-epoch"
  | Tagged -> "tagged"
  | Backend_ladder -> "ladder"
  | Efence -> "efence"
  | Valgrind -> "valgrind"
  | Capability -> "capability"
  | Recover base -> to_string base ^ "+recover"

(* The inverse of [to_string], read off [all] rather than kept as a
   second table of names; any spec takes the recover suffix. *)
let rec of_string name =
  let suffix = "+recover" in
  match List.find_opt (fun spec -> to_string spec = name) all with
  | Some _ as spec -> spec
  | None when String.ends_with ~suffix name ->
    let base = String.sub name 0 (String.length name - String.length suffix) in
    Option.map (fun b -> Recover b) (of_string base)
  | None -> None

let names () = List.map to_string all

let rec label = function
  | Native -> "native"
  | Llvm_base -> "llvm-base"
  | Pa { Schemes.dummy_syscalls = false } -> "pa"
  | Pa { Schemes.dummy_syscalls = true } -> "pa+dummy-syscalls"
  | Shadow_basic -> "our-approach (no pools)"
  | Shadow_pool _ -> "our-approach"
  | Shadow_pool_spatial -> "ours+bounds"
  | Shadow_pool_inferred -> "our-approach+inferred"
  | Shadow_pool_epoch _ -> "our-approach+epoch"
  | Tagged -> "tagged"
  | Backend_ladder -> "backend-ladder"
  | Efence -> "electric-fence"
  | Valgrind -> "valgrind-sim"
  | Capability -> "capability"
  | Recover base -> label base ^ "+recover"

let rec description = function
  | Native -> "unmodified program, native code quality, no detection"
  | Llvm_base -> "unmodified program, LLVM C back-end code quality"
  | Pa { Schemes.dummy_syscalls = false } ->
    "automatic pool allocation alone: VA recycling, no detection"
  | Pa { Schemes.dummy_syscalls = true } ->
    "pools plus one no-op syscall per alloc/free (syscall-cost control)"
  | Shadow_basic -> "shadow pages over the plain allocator (binary-only mode)"
  | Shadow_pool _ -> "the paper's full scheme: shadow pages + pool allocation"
  | Shadow_pool_spatial ->
    "shadow pages plus per-access software bounds checks"
  | Shadow_pool_inferred ->
    "one shadow pool per statically inferred pool scope; destroy unmaps"
  | Shadow_pool_epoch _ ->
    "epoch-batched deferred protection with slab pre-aliasing"
  | Tagged ->
    "pointer tagging: per-access generation-tag check, instant VA reuse"
  | Backend_ladder ->
    "governor steps backends: shadow -> tagged -> raw, probe-recovered"
  | Efence -> "Electric Fence baseline: one object per page"
  | Valgrind -> "Valgrind-style interpretation baseline"
  | Capability -> "capability/fat-pointer checking baseline"
  | Recover base -> description base ^ "; violations logged, not fatal"

let rec detects = function
  | Native | Llvm_base | Pa _ -> false
  | Shadow_basic | Shadow_pool _ | Shadow_pool_spatial | Shadow_pool_inferred
  | Shadow_pool_epoch _ | Tagged ->
    true
  | Backend_ladder -> false (* conditional on the ladder staying in Full *)
  | Efence | Valgrind | Capability -> true
  | Recover base -> detects base

let rec uses_pa_profile = function
  | Pa _ | Shadow_pool _ | Shadow_pool_inferred | Shadow_pool_epoch _ | Tagged
  | Backend_ladder ->
    true
  | Native | Llvm_base | Shadow_basic | Shadow_pool_spatial | Efence
  | Valgrind | Capability ->
    false
  | Recover base -> uses_pa_profile base

let cost_profile spec ~pa_quality_gain =
  match spec with
  | Native -> Vmm.Cost_model.native
  | _ when uses_pa_profile spec ->
    (* Pool allocation changes data layout; the per-workload gain factor
       scales the compiled work (paper: gzip speeds up under PA).  The
       tagged and ladder backends allocate through the same pools. *)
    let base = Vmm.Cost_model.llvm_base in
    Vmm.Cost_model.with_code_quality base
      (base.Vmm.Cost_model.code_quality *. pa_quality_gain)
  | _ -> Vmm.Cost_model.llvm_base

let rec build spec machine =
  match spec with
  | Native | Llvm_base -> Schemes.native machine
  | Pa config -> Schemes.pa ~config machine
  | Shadow_basic -> Schemes.shadow_basic machine
  | Shadow_pool config -> Schemes.shadow_pool ~config machine
  | Shadow_pool_spatial -> Schemes.shadow_pool_spatial machine
  | Shadow_pool_inferred -> Schemes.shadow_pool_inferred machine
  | Shadow_pool_epoch config -> Schemes.shadow_pool_epoch ~config machine
  | Tagged -> Schemes.tagged machine
  | Backend_ladder -> Governed.scheme (Governed.backend_ladder machine)
  | Efence -> Efence.scheme machine
  | Valgrind -> Valgrind_sim.scheme machine
  | Capability -> Capability_check.scheme machine
  | Recover base -> Schemes.recoverable (build base machine)
