(** Static pool inference over the field-sensitive {!Dsa} partition.

    Partitions allocation sites into pools (one per DSA heap class),
    infers each pool's lifetime — the owner function where
    [pool_init]/[pool_destroy] are placed, from
    {!Pool_transform.plan}'s escape-based owner selection; classes
    reachable from globals get a [main]-owned, non-destroyable pool —
    checks per-pool type homogeneity, and scores every allocation site
    with a static dangling-risk estimate in [0,1]:

    {v risk = 0.55*V*(0.5 + 0.5*D) + 0.30*E + 0.15*Z v}

    with V the class verdict weight (Must 1.0 / May 0.5 / Safe 0.0),
    D the flagged-finding density on the class, E = ed/(ed+1) the
    escape-depth pressure and Z = (n-1)/n the pool-size pressure.

    Output (both {!to_json} and {!render}) is canonically ordered —
    pools by id, sites by ordinal — so repeated runs over one program
    are byte-identical; the pool_inference bench section and
    [test/cli.t] gate on exactly this. *)

type pool = {
  id : int;                  (** index in heap-class order *)
  class_id : int;            (** the DSA class *)
  pool_var : string;         (** descriptor name, e.g. [__pool3] *)
  owner : string;            (** function holding init/destroy *)
  owner_depth : int;         (** call-graph depth of owner from main *)
  global : bool;             (** reachable from globals: main-owned *)
  destroyable : bool;        (** [not global] *)
  struct_names : string list;(** element types allocated, sorted *)
  homogeneous : bool;        (** single element type *)
  sites : int list;          (** member allocation-site ordinals *)
}

type site_score = {
  ordinal : int;             (** {!Ast.iter_malloc_sites} number *)
  fname : string;
  struct_name : string;
  pos : Ast.pos;
  pool_id : int;
  class_id : int;
  verdict : Dangling.verdict;
  escape_depth : int;        (** call levels the object outlives its
                                 allocating function *)
  risk : float;
}

type result = { pools : pool list; sites : site_score list }

val analyze : Ast.program -> result
(** Runs {!Typecheck.check}, {!Dsa.analyze}, {!Dangling.analyze_with}
    and {!Pool_transform.plan}; raises the usual parse/type errors on
    malformed input. *)

val risk_score :
  verdict:Dangling.verdict ->
  density:float ->
  escape_depth:int ->
  pool_sites:int ->
  float
(** The raw formula (exposed for tests). *)

val to_json : ?file:string -> result -> Telemetry.Json.t
val render : ?file:string -> result -> string
