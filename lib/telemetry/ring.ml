type 'a t = {
  buf : 'a option array;
  cap : int;
  mutable total : int; (* items ever pushed *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity <= 0";
  { buf = Array.make capacity None; cap = capacity; total = 0 }

let push t x =
  t.buf.(t.total mod t.cap) <- Some x;
  t.total <- t.total + 1

let length t = min t.total t.cap
let pushed t = t.total
let dropped t = max 0 (t.total - t.cap)

let to_list t =
  let len = length t in
  let first = t.total - len in
  List.init len (fun i ->
      match t.buf.((first + i) mod t.cap) with
      | Some x -> x
      | None -> assert false)

let clear t =
  Array.fill t.buf 0 t.cap None;
  t.total <- 0
