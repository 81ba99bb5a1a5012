(* The simulated mutator root set a conservative collector scans:
   machine registers, stack words, and global slots.  Values are plain
   words; 0 marks an empty slot (the VA base is non-zero, so no valid
   pointer is ever 0). *)

type source =
  | Register of int
  | Stack of int
  | Global of int

let source_label = function
  | Register i -> Printf.sprintf "register[%d]" i
  | Stack i -> Printf.sprintf "stack[%d]" i
  | Global i -> Printf.sprintf "global[%d]" i

type t = {
  registers : int array;
  mutable stack : int array;
  mutable stack_depth : int;
  globals : (int, int) Hashtbl.t;
}

(* General-purpose registers of the modeled machine. *)
let registers = 16

let create () =
  {
    registers = Array.make registers 0;
    stack = Array.make 64 0;
    stack_depth = 0;
    globals = Hashtbl.create 16;
  }

let set_register t i v =
  if i < 0 || i >= Array.length t.registers then
    invalid_arg "Roots.set_register: register index out of range";
  t.registers.(i) <- v

let clear_register t i = set_register t i 0

let push_stack t v =
  if t.stack_depth = Array.length t.stack then begin
    let bigger = Array.make (2 * Array.length t.stack) 0 in
    Array.blit t.stack 0 bigger 0 t.stack_depth;
    t.stack <- bigger
  end;
  t.stack.(t.stack_depth) <- v;
  t.stack_depth <- t.stack_depth + 1

let set_global t ~slot v =
  if v = 0 then Hashtbl.remove t.globals slot
  else Hashtbl.replace t.globals slot v

let clear_global t ~slot = Hashtbl.remove t.globals slot

(* Deterministic enumeration: registers in index order, the stack bottom
   to top, globals in slot order.  Empty (zero) words are skipped — they
   can never witness a pointer. *)
let iter_words t f =
  Array.iteri (fun i v -> if v <> 0 then f (Register i) v) t.registers;
  for i = 0 to t.stack_depth - 1 do
    if t.stack.(i) <> 0 then f (Stack i) t.stack.(i)
  done;
  Hashtbl.fold (fun slot v acc -> (slot, v) :: acc) t.globals []
  |> List.sort compare
  |> List.iter (fun (slot, v) -> f (Global slot) v)

let word_count t =
  Array.length t.registers + t.stack_depth + Hashtbl.length t.globals

(* Heap-word enumeration for the mark phase: every word-aligned 8-byte
   word fully inside [addr, addr+bytes), read in kernel mode so scanning
   neither trips page protections nor perturbs user-level access
   statistics.  Pointers are stored word-aligned by convention, so the
   sub-word tail cannot hold one and is not scanned.  An aligned word
   never crosses a page, so the page table is walked once per page and
   that page's words are read straight from its frame. *)
let word_bytes = 8

let iter_heap_words machine ~addr ~bytes f =
  let frames = machine.Machine.frames in
  let limit = addr + bytes in
  let w = ref ((addr + word_bytes - 1) / word_bytes * word_bytes) in
  while !w + word_bytes <= limit do
    let frame = Mmu.kernel_frame machine !w in
    let stop = min limit (Addr.page_base !w + Addr.page_size) in
    while !w + word_bytes <= stop do
      let v =
        Frame_table.read_word frames frame (Addr.offset !w) ~width:word_bytes
      in
      if v <> 0 then f !w v;
      w := !w + word_bytes
    done
  done

let heap_word_count ~addr ~bytes =
  let first = (addr + word_bytes - 1) / word_bytes * word_bytes in
  let limit = addr + bytes in
  if limit - first < word_bytes then 0 else (limit - first) / word_bytes
