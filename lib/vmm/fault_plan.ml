type errno =
  | Enomem
  | Eagain
  | Eacces
  | Einval
  | Enospc

type error =
  | Transient of errno
  | Fatal of errno

exception Syscall_failure of { name : string; error : error }

type call =
  | Mmap
  | Mmap_fixed
  | Mremap
  | Mprotect
  | Munmap

type trigger =
  | Rate of float
  | Nth_call of int
  | Burst of { first : int; length : int }
  | Va_budget of int

type rule = {
  calls : call list;
  trigger : trigger;
  error : error;
}

let call_count = 5

let call_index = function
  | Mmap -> 0
  | Mmap_fixed -> 1
  | Mremap -> 2
  | Mprotect -> 3
  | Munmap -> 4

let errno_label = function
  | Enomem -> "ENOMEM"
  | Eagain -> "EAGAIN"
  | Eacces -> "EACCES"
  | Einval -> "EINVAL"
  | Enospc -> "ENOSPC"

let error_label = function
  | Transient e -> "transient " ^ errno_label e
  | Fatal e -> "fatal " ^ errno_label e

let is_transient = function Transient _ -> true | Fatal _ -> false

type t = {
  rules : rule list;
  mutable rng : int64;
  attempts : int array; (* per-call attempt counter, 1-based after bump *)
  mutable injected : int;
}

let create ?(seed = 1) rules =
  (match
     List.find_opt
       (fun r -> match r.trigger with Rate p -> p < 0. || p > 1. | _ -> false)
       rules
   with
   | Some _ -> invalid_arg "Fault_plan.create: Rate probability outside [0, 1]"
   | None -> ());
  {
    rules;
    rng = Int64.of_int (seed lxor 0x9e3779b9);
    attempts = Array.make call_count 0;
    injected = 0;
  }

let none () = create []
let has_rules t = t.rules <> []

(* splitmix64: deterministic, seed-reproducible, no dependence on the
   global Random state (workload PRNGs must not perturb fault timing). *)
let next_u64 t =
  let z = Int64.add t.rng 0x9e3779b97f4a7c15L in
  t.rng <- z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_float t =
  Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) *. 0x1p-53

let rule_applies rule call = rule.calls = [] || List.mem call rule.calls

let trigger_fires t trigger ~nth ~va_bytes =
  match trigger with
  | Rate p -> p > 0. && next_float t < p
  | Nth_call n -> nth = n
  | Burst { first; length } -> nth >= first && nth < first + length
  | Va_budget bytes -> va_bytes > bytes

let decide t call ~va_bytes =
  let idx = call_index call in
  t.attempts.(idx) <- t.attempts.(idx) + 1;
  let nth = t.attempts.(idx) in
  let rec first_firing = function
    | [] -> None
    | rule :: rest ->
      if rule_applies rule call && trigger_fires t rule.trigger ~nth ~va_bytes
      then Some rule.error
      else first_firing rest
  in
  match first_firing t.rules with
  | Some error ->
    t.injected <- t.injected + 1;
    Some error
  | None -> None

let injected t = t.injected
let attempts t call = t.attempts.(call_index call)
