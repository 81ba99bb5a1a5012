open Vmm

type state =
  | Live
  | Freed of { free_site : string }

type obj = {
  id : int;
  canonical : Addr.t;
  shadow_base : Addr.t;
  pages : int;
  user_addr : Addr.t;
  size : int;
  alloc_site : string;
  mutable state : state;
}

type t = {
  by_page : (int, obj) Hashtbl.t;
  mutable next_id : int;
  mutable freed_retained : int;
}

let create () =
  { by_page = Hashtbl.create 64; next_id = 0; freed_retained = 0 }

let register t ~canonical ~shadow_base ~pages ~user_addr ~size ~alloc_site =
  let obj =
    {
      id = t.next_id;
      canonical;
      shadow_base;
      pages;
      user_addr;
      size;
      alloc_site;
      state = Live;
    }
  in
  t.next_id <- t.next_id + 1;
  for i = 0 to pages - 1 do
    Hashtbl.replace t.by_page (Addr.page_index shadow_base + i) obj
  done;
  obj

let find_by_addr t addr = Hashtbl.find_opt t.by_page (Addr.page_index addr)

let mark_freed t obj ~free_site =
  (match obj.state with
   | Live -> t.freed_retained <- t.freed_retained + 1
   | Freed _ -> ());
  obj.state <- Freed { free_site }

let forget_range t ~base ~pages =
  for i = 0 to pages - 1 do
    let page = Addr.page_index base + i in
    match Hashtbl.find_opt t.by_page page with
    | Some obj ->
      (match obj.state with
       | Live -> ()
       | Freed _ -> t.freed_retained <- t.freed_retained - 1);
      (* Remove every page of the object to keep counts consistent. *)
      for j = 0 to obj.pages - 1 do
        Hashtbl.remove t.by_page (Addr.page_index obj.shadow_base + j)
      done
    | None -> ()
  done

let freed_retained_count t = t.freed_retained

(* [by_page] holds one binding per page an object spans; visiting an
   object only from its first page yields each live object exactly
   once. *)
let iter_live t f =
  Hashtbl.iter
    (fun page obj ->
      if obj.state = Live && page = Addr.page_index obj.shadow_base then f obj)
    t.by_page
