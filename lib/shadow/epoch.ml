open Vmm

(* Epoch-batched deferred protection (the CAMP-style quarantine): frees
   are validated and marked immediately but their page protection and
   canonical reuse are deferred into a bounded epoch.  Retirement
   coalesces every pending shadow range and issues one ranged protect
   per merged run instead of one per free.  While an entry is pending
   its pages are still readable, so soundness inside the window comes
   from the [quarantined] side table: the owning scheme consults it on
   every access and raises the violation in software. *)

type entry = {
  obj : Object_registry.obj;
  release : unit -> unit;
      (* canonical dealloc + pool range bookkeeping, run only once the
         range is protected — quarantine also delays physical reuse *)
}

type t = {
  protect : addr:Addr.t -> pages:int -> (unit, Fault_plan.error) result;
  max_frees : int;
  quarantined : (int, Object_registry.obj) Hashtbl.t; (* page index -> obj *)
  mutable pending : entry list; (* newest first *)
  mutable pending_frees : int;
  mutable pending_pages : int;
  mutable retirements : int;
  mutable retired_frees : int;
  mutable protect_calls : int;
  mutable split_retries : int;
  mutable failed_protects : int;
}

(* Quarantined pages that force retirement whatever the free count. *)
let max_pages = 256

let create ?(max_frees = 64) ~protect () =
  if max_frees <= 0 then invalid_arg "Epoch.create: max_frees <= 0";
  {
    protect;
    max_frees;
    quarantined = Hashtbl.create 64;
    pending = [];
    pending_frees = 0;
    pending_pages = 0;
    retirements = 0;
    retired_frees = 0;
    protect_calls = 0;
    split_retries = 0;
    failed_protects = 0;
  }

let iter_obj_pages (o : Object_registry.obj) f =
  let first = Addr.page_index o.Object_registry.shadow_base in
  for p = first to first + o.Object_registry.pages - 1 do
    f p
  done

let enqueue t (obj : Object_registry.obj) ~release =
  iter_obj_pages obj (fun p -> Hashtbl.replace t.quarantined p obj);
  t.pending <- { obj; release } :: t.pending;
  t.pending_frees <- t.pending_frees + 1;
  t.pending_pages <- t.pending_pages + obj.Object_registry.pages

let should_retire t =
  t.pending_frees >= t.max_frees || t.pending_pages >= max_pages

let quarantined_obj t addr =
  Hashtbl.find_opt t.quarantined (Addr.page_index addr)

let pending_frees t = t.pending_frees
let pending_pages t = t.pending_pages
let retirements t = t.retirements
let retired_frees t = t.retired_frees
let protect_calls t = t.protect_calls
let split_retries t = t.split_retries
let failed_protects t = t.failed_protects

let range_covers ~base ~pages (o : Object_registry.obj) =
  o.Object_registry.shadow_base >= base
  && o.Object_registry.shadow_base < base + (pages * Addr.page_size)

(* Retire the open epoch: one coalesced protect per merged run.  A run
   whose batched call fails is split back into its member objects and
   each is protected individually; an object whose own protect still
   fails is re-enqueued — it stays quarantined (so detection holds) and
   its canonical block stays unreleased, and the next retirement tries
   again.  Protection is never silently dropped. *)
let retire t =
  if t.pending <> [] then begin
    t.retirements <- t.retirements + 1;
    let entries = List.rev t.pending in
    t.pending <- [];
    t.pending_frees <- 0;
    t.pending_pages <- 0;
    let runs =
      Syscalls.coalesce_ranges
        (List.map
           (fun e ->
             (e.obj.Object_registry.shadow_base, e.obj.Object_registry.pages))
           entries)
    in
    let retired = ref [] in
    List.iter
      (fun (base, pages) ->
        let members =
          List.filter (fun e -> range_covers ~base ~pages e.obj) entries
        in
        t.protect_calls <- t.protect_calls + 1;
        match t.protect ~addr:base ~pages with
        | Ok () -> retired := members @ !retired
        | Error _ ->
          List.iter
            (fun e ->
              t.split_retries <- t.split_retries + 1;
              match
                t.protect ~addr:e.obj.Object_registry.shadow_base
                  ~pages:e.obj.Object_registry.pages
              with
              | Ok () -> retired := e :: !retired
              | Error _ ->
                t.failed_protects <- t.failed_protects + 1;
                t.pending <- e :: t.pending;
                t.pending_frees <- t.pending_frees + 1;
                t.pending_pages <-
                  t.pending_pages + e.obj.Object_registry.pages)
            members)
      runs;
    List.iter
      (fun e ->
        iter_obj_pages e.obj (fun p -> Hashtbl.remove t.quarantined p);
        e.release ();
        t.retired_frees <- t.retired_frees + 1)
      !retired
  end
