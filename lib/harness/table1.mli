(** Table 1 of the paper: run-time overheads of the full approach on
    Unix utilities and servers — columns native, LLVM (base), PA,
    PA + dummy syscalls, our approach, Ratio 1 (ours / LLVM base) and
    Ratio 2 (ours / native).  Utilities report whole-run cycles;
    servers report mean response cycles per forked connection. *)

type row = {
  name : string;
  loc : int option;
  native : float;
  llvm_base : float;
  pa : float;
  pa_dummy : float;
  ours : float;
  ratio1 : float;
  ratio2 : float;
  paper_ratio1 : float option;
}

val server_row : ?connections:int -> Workload.Spec.server -> row

val rows : ?scale_divisor:int -> unit -> row list
(** All Table 1 rows (4 utilities then 5 servers).  [scale_divisor]
    shrinks workload sizes for quick runs (tests). *)

val render : row list -> string

val to_json : row list -> Telemetry.Json.t
(** Rows as a JSON array (the [--json] CLI flag and BENCH_results.json). *)
