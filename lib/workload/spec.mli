(** Workload descriptors: what the harness needs to run, label, and
    calibrate each benchmark, including the paper-reported numbers we
    compare shapes against in EXPERIMENTS.md. *)

type category =
  | Utility     (** Table 1 top half: enscript, jwhois, patch, gzip *)
  | Server      (** Table 1 bottom half: fork-per-connection daemons *)
  | Olden       (** Table 3: allocation-intensive kernels *)

type paper_numbers = {
  loc : int option;          (** the paper's LOC column, where given *)
  ratio1 : float option;     (** paper's slowdown vs LLVM base *)
  valgrind_ratio : float option;  (** paper's Table 2 slowdown, if listed *)
}

type batch = {
  name : string;
  category : category;
  description : string;
  paper : paper_numbers;
  pa_quality_gain : float;
      (** multiplier on compiled-work cost under pool allocation,
          modeling APA's cache-locality effect (< 1.0 = speedup, e.g.
          gzip; 1.0 = neutral) *)
  default_scale : int;
  run : Runtime.Scheme.t -> scale:int -> unit;
}
(** A run-to-completion workload (utilities and Olden kernels). *)

type server = {
  s_name : string;
  s_description : string;
  s_paper : paper_numbers;
  s_default_connections : int;
  handler : int -> Runtime.Scheme.t -> unit;
      (** per-connection handler, given the connection index and the
          child's fresh scheme *)
}
