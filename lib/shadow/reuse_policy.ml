type strategy =
  | Interval_reuse of { trigger_pages : int }
  | Conservative_gc of { trigger_pages : int; scan_cost_per_object : int }
  | Manual

type t = {
  strategy : strategy;
  pool : Shadow_pool.t;
  gc : Gc.t option;
  mutable trigger_override : int option;
  mutable reclaimed : int;
  mutable gc_runs : int;
}

let create ?gc strategy pool =
  (match (strategy, gc) with
  | _, Some g when Gc.pool g != pool ->
    invalid_arg "Reuse_policy.create: gc is bound to a different pool"
  | Conservative_gc _, None ->
    invalid_arg "Reuse_policy.create: Conservative_gc needs a ~gc collector"
  | _ -> ());
  { strategy; pool; gc; trigger_override = None; reclaimed = 0; gc_runs = 0 }

let reclaim t = t.reclaimed <- t.reclaimed + Shadow_pool.reclaim_freed_shadow t.pool

let base_trigger t =
  match t.strategy with
  | Interval_reuse { trigger_pages } | Conservative_gc { trigger_pages; _ } ->
    Some trigger_pages
  | Manual -> None

let trigger_pages t =
  match t.trigger_override with
  | Some p -> Some p
  | None -> base_trigger t

(* VA pressure tightens the policy: reclamation fires earlier.  The
   override never loosens the configured trigger. *)
let set_trigger_pages t pages =
  if pages < 1 then invalid_arg "Reuse_policy.set_trigger_pages: pages < 1";
  match base_trigger t with
  | Some base -> t.trigger_override <- Some (min base pages)
  | None -> ()

let after_free t =
  (* A reclamation hook can legitimately fire after its pool is gone
     (e.g. a free on a sibling pool races a pooldestroy); there is
     nothing left to reclaim, so this is a no-op rather than an error. *)
  if Shadow_pool.is_destroyed t.pool then ()
  else
  match t.strategy with
  | Manual -> ()
  | Interval_reuse _ ->
    (match trigger_pages t with
    | Some trigger when Shadow_pool.freed_shadow_pages t.pool >= trigger ->
      reclaim t
    | Some _ | None -> ())
  | Conservative_gc _ ->
    (match (trigger_pages t, t.gc) with
    | Some trigger, Some g
      when Shadow_pool.freed_shadow_pages t.pool >= trigger ->
      (* The real mark phase: scan roots and live heap words, pin
         witnessed ranges, release only the proven-unreferenced ones.
         It charges its own scan cost. *)
      let report = Gc.run g in
      t.gc_runs <- t.gc_runs + 1;
      t.reclaimed <- t.reclaimed + report.Gc.reclaimed_pages
    | _ -> ())

let attach t = Shadow_pool.set_after_free_hook t.pool (fun () -> after_free t)

let reclaimed_pages t = t.reclaimed
let gc_runs t = t.gc_runs

let pinned_ranges t =
  match t.gc with Some g -> List.length (Gc.last_pinned g) | None -> 0

let strategy_label = function
  | Interval_reuse { trigger_pages } ->
    Printf.sprintf "interval-reuse(%d pages)" trigger_pages
  | Conservative_gc { trigger_pages; _ } ->
    Printf.sprintf "conservative-gc(%d pages)" trigger_pages
  | Manual -> "manual"
