type t = {
  frames : Frame_table.t;
  page_table : Page_table.t;
  tlb : Tlb.t;
  cache : Cache.t;
  stats : Stats.t;
  trace : Telemetry.Sink.t;
  mutable cost : Cost_model.t;
  mutable next_va : Addr.t;
  mutable fault_plan : Fault_plan.t;
  mutable pools_created : int;
}

let va_base = Addr.of_page 0x10000 (* 256 MiB: keeps 0 and low pages invalid *)

let cycles t = Cost_model.cycles t.cost (Stats.snapshot t.stats)

let create ?(cost = Cost_model.llvm_base) ?(tlb_entries = 64) ?trace
    ?fault_plan () =
  let trace =
    match trace with
    | Some sink -> sink
    | None -> Telemetry.Sink.disabled ()
  in
  let fault_plan =
    match fault_plan with
    | Some plan -> plan
    | None -> Fault_plan.none ()
  in
  let t =
    {
      frames = Frame_table.create ();
      page_table = Page_table.create ();
      tlb = Tlb.create ~entries:tlb_entries ();
      cache = Cache.create ();
      stats = Stats.create ();
      trace;
      cost;
      next_va = va_base;
      fault_plan;
      pools_created = 0;
    }
  in
  (* Events carry the machine's own logical clock. *)
  Telemetry.Sink.set_clock trace (fun () -> cycles t);
  t

let fresh_pages t n =
  if n <= 0 then
    invalid_arg "Machine.fresh_pages: pages <= 0 (callers validate page counts)";
  let base = t.next_va in
  t.next_va <- t.next_va + (n * Addr.page_size);
  base

let cycles_since t before =
  Cost_model.cycles t.cost (Stats.diff (Stats.snapshot t.stats) before)

let va_bytes_used t = t.next_va - va_base

let exit t =
  Tlb.clear t.tlb;
  Frame_table.release t.frames;
  Page_table.release t.page_table
