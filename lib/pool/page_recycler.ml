open Vmm

type range = { base : Addr.t; pages : int }

type t = {
  mutable ranges : range list;
  mutable available : int;
  mutable recycled : int;
  mutable reused : int;
}

let create () = { ranges = []; available = 0; recycled = 0; reused = 0 }

let put t ~base ~pages =
  if not (Addr.is_page_aligned base) || pages <= 0 then
    invalid_arg
      (Printf.sprintf "Page_recycler.put: bad range 0x%x + %d pages \
                       (ranges are page-aligned and non-empty)" base pages);
  t.ranges <- { base; pages } :: t.ranges;
  t.available <- t.available + pages;
  t.recycled <- t.recycled + pages

(* First fit; a larger range is split and its tail kept.  Free lists here
   are tiny (tens of ranges), so the linear scan is fine. *)
let take t ~pages =
  let rec go acc = function
    | [] -> None
    | r :: rest when r.pages >= pages ->
      let leftover =
        if r.pages > pages then
          [ { base = r.base + (pages * Addr.page_size); pages = r.pages - pages } ]
        else []
      in
      t.ranges <- List.rev_append acc (leftover @ rest);
      t.available <- t.available - pages;
      t.reused <- t.reused + pages;
      Some r.base
    | r :: rest -> go (r :: acc) rest
  in
  go [] t.ranges

let untake t ~base ~pages =
  put t ~base ~pages;
  t.recycled <- t.recycled - pages;
  t.reused <- t.reused - pages

let available_pages t = t.available
let total_recycled_pages t = t.recycled
let total_reused_pages t = t.reused
