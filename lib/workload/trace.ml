type event =
  | Alloc of { obj : int; size : int; pool : int option }
  | Free of { obj : int }
  | Read of { obj : int; offset : int; width : int }
  | Write of { obj : int; offset : int; width : int; value : int }
  | Pool_begin of { pool : int }
  | Pool_end of { pool : int }
  | Compute of { instructions : int }

type t = event list

(* ---- generation ---- *)

type gen_obj = {
  index : int;
  size : int;
  pool : int option;
  mutable written : int list; (* offsets holding defined values *)
}

let generate ~seed ~length () =
  let rng = Prng.create ~seed in
  let events = ref [] in
  let emit e = events := e :: !events in
  let live = ref [] in (* live objects, any pool depth *)
  let pool_stack = ref [] in
  let next_obj = ref 0 in
  let next_pool = ref 0 in
  let alloc () =
    let size = 8 * (1 + Prng.below rng 32) in
    let pool =
      match !pool_stack with
      | p :: _ -> Some p
      | [] -> None
    in
    let obj = { index = !next_obj; size; pool; written = [] } in
    incr next_obj;
    live := obj :: !live;
    emit (Alloc { obj = obj.index; size; pool })
  in
  let pick_live () =
    match !live with
    | [] -> None
    | objs -> Some (List.nth objs (Prng.below rng (List.length objs)))
  in
  let free_one () =
    match pick_live () with
    | Some obj ->
      live := List.filter (fun o -> o.index <> obj.index) !live;
      emit (Free { obj = obj.index })
    | None -> alloc ()
  in
  let touch write =
    match pick_live () with
    | Some obj ->
      if write then begin
        let offset = 8 * Prng.below rng (obj.size / 8) in
        if not (List.mem offset obj.written) then
          obj.written <- offset :: obj.written;
        emit
          (Write { obj = obj.index; offset; width = 8; value = Prng.below rng 100000 })
      end
      else begin
        (* Only read offsets that hold defined values: uninitialised
           memory contents are allocator-specific, and the differential
           tests require scheme-independent results. *)
        match obj.written with
        | [] ->
          let offset = 8 * Prng.below rng (obj.size / 8) in
          obj.written <- offset :: obj.written;
          emit
            (Write
               { obj = obj.index; offset; width = 8; value = Prng.below rng 100000 })
        | offsets ->
          let offset = List.nth offsets (Prng.below rng (List.length offsets)) in
          emit (Read { obj = obj.index; offset; width = 8 })
      end
    | None -> alloc ()
  in
  let open_pool () =
    if List.length !pool_stack < 2 then begin
      let p = !next_pool in
      incr next_pool;
      pool_stack := p :: !pool_stack;
      emit (Pool_begin { pool = p })
    end
    else alloc ()
  in
  let close_pool () =
    match !pool_stack with
    | p :: rest ->
      (* Everything allocated in this pool dies with it. *)
      live := List.filter (fun o -> o.pool <> Some p) !live;
      pool_stack := rest;
      emit (Pool_end { pool = p })
    | [] -> touch false
  in
  for _ = 1 to length do
    match Prng.below rng 20 with
    | 0 | 1 | 2 | 3 | 4 -> alloc ()
    | 5 | 6 -> free_one ()
    | 7 -> open_pool ()
    | 8 -> close_pool ()
    | 9 -> emit (Compute { instructions = 10 * (1 + Prng.below rng 100) })
    | 10 | 11 | 12 | 13 -> touch true
    | _ -> touch false
  done;
  (* Close any pools still open so replay ends clean. *)
  List.iter
    (fun p ->
      live := List.filter (fun o -> o.pool <> Some p) !live;
      emit (Pool_end { pool = p }))
    !pool_stack;
  List.rev !events

(* ---- replay ---- *)

type replay_result = {
  reads : (int * int) list;
  violations : int;
}

type replay_obj = {
  addr : Vmm.Addr.t;
  owner : Runtime.Scheme.pool_handle option;
}

let replay trace (scheme : Runtime.Scheme.t) =
  let objects : (int, replay_obj) Hashtbl.t = Hashtbl.create 64 in
  let pools : (int, Runtime.Scheme.pool_handle) Hashtbl.t = Hashtbl.create 8 in
  let reads = ref [] in
  let violations = ref 0 in
  let guard f = try f () with Shadow.Report.Violation _ -> incr violations in
  List.iteri
    (fun i event ->
      match event with
      | Alloc { obj; size; pool } ->
        let owner = Option.map (Hashtbl.find pools) pool in
        let site = Printf.sprintf "trace:%d" i in
        let addr =
          match owner with
          | Some handle -> handle.Runtime.Scheme.pool_alloc ~site size
          | None -> scheme.Runtime.Scheme.malloc ~site size
        in
        Hashtbl.replace objects obj { addr; owner }
      | Free { obj } ->
        let o = Hashtbl.find objects obj in
        guard (fun () ->
            match o.owner with
            | Some handle -> handle.Runtime.Scheme.pool_free o.addr
            | None -> scheme.Runtime.Scheme.free o.addr)
      | Read { obj; offset; width } ->
        let o = Hashtbl.find objects obj in
        guard (fun () ->
            reads :=
              (i, scheme.Runtime.Scheme.load (o.addr + offset) ~width) :: !reads)
      | Write { obj; offset; width; value } ->
        let o = Hashtbl.find objects obj in
        guard (fun () ->
            scheme.Runtime.Scheme.store (o.addr + offset) ~width value)
      | Pool_begin { pool } ->
        Hashtbl.replace pools pool (scheme.Runtime.Scheme.pool_create ())
      | Pool_end { pool } ->
        (Hashtbl.find pools pool).Runtime.Scheme.pool_destroy ()
      | Compute { instructions } -> scheme.Runtime.Scheme.compute instructions)
    trace;
  { reads = List.rev !reads; violations = !violations }

(* ---- recording ---- *)

(* Address -> object resolution for interior accesses, via a page index
   (the same structure the Valgrind model uses). *)
type rec_obj = { r_index : int; r_base : Vmm.Addr.t; r_size : int }

type recorder = {
  mutable events : event list;
  by_page : (int, rec_obj list ref) Hashtbl.t;
  mutable next_obj : int;
  mutable next_pool : int;
}

let rec_emit r e = r.events <- e :: r.events

let rec_register r base size =
  let obj = { r_index = r.next_obj; r_base = base; r_size = size } in
  r.next_obj <- r.next_obj + 1;
  for page = Vmm.Addr.page_index base
      to Vmm.Addr.page_index (base + size - 1) do
    let cell =
      match Hashtbl.find_opt r.by_page page with
      | Some cell -> cell
      | None ->
        let cell = ref [] in
        Hashtbl.replace r.by_page page cell;
        cell
    in
    cell := obj :: !cell
  done;
  obj

let rec_find r addr =
  match Hashtbl.find_opt r.by_page (Vmm.Addr.page_index addr) with
  | None -> None
  | Some cell ->
    List.find_opt
      (fun o -> addr >= o.r_base && addr < o.r_base + o.r_size)
      !cell

let record (scheme : Runtime.Scheme.t) =
  let r =
    { events = []; by_page = Hashtbl.create 256; next_obj = 0; next_pool = 0 }
  in
  let recorded_malloc pool_id alloc ?site size =
    let addr = alloc ?site size in
    let obj = rec_register r addr size in
    rec_emit r (Alloc { obj = obj.r_index; size; pool = pool_id });
    addr
  in
  let recorded_free free_ ?site addr =
    (match rec_find r addr with
     | Some o when o.r_base = addr -> rec_emit r (Free { obj = o.r_index })
     | Some _ | None -> ());
    free_ ?site addr
  in
  let wrap_pool_handle (handle : Runtime.Scheme.pool_handle) =
    let pool_id = r.next_pool in
    r.next_pool <- r.next_pool + 1;
    rec_emit r (Pool_begin { pool = pool_id });
    {
      Runtime.Scheme.pool_alloc =
        (fun ?site size ->
          recorded_malloc (Some pool_id) handle.Runtime.Scheme.pool_alloc ?site
            size);
      pool_free =
        (fun ?site addr ->
          recorded_free handle.Runtime.Scheme.pool_free ?site addr);
      pool_destroy =
        (fun () ->
          rec_emit r (Pool_end { pool = pool_id });
          handle.Runtime.Scheme.pool_destroy ());
    }
  in
  let wrapper =
    {
      scheme with
      Runtime.Scheme.name = scheme.Runtime.Scheme.name ^ "+recorder";
      malloc =
        (fun ?site size ->
          recorded_malloc None scheme.Runtime.Scheme.malloc ?site size);
      free = (fun ?site addr -> recorded_free scheme.Runtime.Scheme.free ?site addr);
      load =
        (fun addr ~width ->
          let v = scheme.Runtime.Scheme.load addr ~width in
          (match rec_find r addr with
           | Some o ->
             rec_emit r (Read { obj = o.r_index; offset = addr - o.r_base; width })
           | None -> ());
          v);
      store =
        (fun addr ~width value ->
          scheme.Runtime.Scheme.store addr ~width value;
          match rec_find r addr with
          | Some o ->
            rec_emit r
              (Write { obj = o.r_index; offset = addr - o.r_base; width; value })
          | None -> ());
      pool_create =
        (fun ?elem_size () ->
          wrap_pool_handle (scheme.Runtime.Scheme.pool_create ?elem_size ()));
      compute =
        (fun n ->
          rec_emit r (Compute { instructions = n });
          scheme.Runtime.Scheme.compute n);
    }
  in
  (wrapper, fun () -> List.rev r.events)

(* ---- text format ---- *)

let event_to_string = function
  | Alloc { obj; size; pool = None } -> Printf.sprintf "alloc %d %d -" obj size
  | Alloc { obj; size; pool = Some p } -> Printf.sprintf "alloc %d %d %d" obj size p
  | Free { obj } -> Printf.sprintf "free %d" obj
  | Read { obj; offset; width } -> Printf.sprintf "read %d %d %d" obj offset width
  | Write { obj; offset; width; value } ->
    Printf.sprintf "write %d %d %d %d" obj offset width value
  | Pool_begin { pool } -> Printf.sprintf "pool-begin %d" pool
  | Pool_end { pool } -> Printf.sprintf "pool-end %d" pool
  | Compute { instructions } -> Printf.sprintf "compute %d" instructions

let to_string t = String.concat "\n" (List.map event_to_string t) ^ "\n"

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "alloc"; obj; size; "-" ] ->
    Ok
      (Some
         (Alloc { obj = int_of_string obj; size = int_of_string size; pool = None }))
  | [ "alloc"; obj; size; pool ] ->
    Ok
      (Some
         (Alloc
            {
              obj = int_of_string obj;
              size = int_of_string size;
              pool = Some (int_of_string pool);
            }))
  | [ "free"; obj ] -> Ok (Some (Free { obj = int_of_string obj }))
  | [ "read"; obj; offset; width ] ->
    Ok
      (Some
         (Read
            {
              obj = int_of_string obj;
              offset = int_of_string offset;
              width = int_of_string width;
            }))
  | [ "write"; obj; offset; width; value ] ->
    Ok
      (Some
         (Write
            {
              obj = int_of_string obj;
              offset = int_of_string offset;
              width = int_of_string width;
              value = int_of_string value;
            }))
  | [ "pool-begin"; pool ] -> Ok (Some (Pool_begin { pool = int_of_string pool }))
  | [ "pool-end"; pool ] -> Ok (Some (Pool_end { pool = int_of_string pool }))
  | [ "compute"; n ] -> Ok (Some (Compute { instructions = int_of_string n }))
  | [ "" ] -> Ok None
  | word :: _ when String.length word > 0 && word.[0] = '#' -> Ok None
  | _ -> Error (Printf.sprintf "unparseable trace line: %S" line)

let of_string s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      (match parse_line line with
       | Ok (Some e) -> go (e :: acc) rest
       | Ok None -> go acc rest
       | Error _ as e -> e
       | exception Failure _ ->
         Error (Printf.sprintf "bad integer in trace line: %S" line))
  in
  go [] (String.split_on_char '\n' s)

let length = List.length

let live_objects_at_end t =
  let live = Hashtbl.create 64 in
  let pool_of_obj = Hashtbl.create 64 in
  List.iter
    (function
      | Alloc { obj; pool; _ } ->
        Hashtbl.replace live obj ();
        (match pool with
         | Some p -> Hashtbl.replace pool_of_obj obj p
         | None -> ())
      | Free { obj } -> Hashtbl.remove live obj
      | Pool_end { pool } ->
        Hashtbl.iter
          (fun obj p -> if p = pool then Hashtbl.remove live obj)
          (Hashtbl.copy pool_of_obj)
      | Pool_begin _ | Read _ | Write _ | Compute _ -> ())
    t;
  Hashtbl.length live
