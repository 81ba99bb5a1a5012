(* What one run writes down: the environment that can move host
   timings, the failure tally, and every metric with its unit (and, for
   host medians, quartiles and sample count).  [compare] reads these
   files back and refuses to pair runs whose environments differ. *)

module J = Telemetry.Json

type env = {
  seed : int;
  nproc : int;
  shards : int;
  ocaml : string;
  ocamlrunparam : string;  (** moves multi-domain host throughput severalfold *)
}

let env ~seed ~shards =
  let runparam =
    match Sys.getenv_opt "OCAMLRUNPARAM" with
    | Some v -> v
    | None -> Option.value (Sys.getenv_opt "CAMLRUNPARAM") ~default:""
  in
  {
    seed;
    nproc = Domain.recommended_domain_count ();
    shards;
    ocaml = Sys.ocaml_version;
    ocamlrunparam = runparam;
  }

(* Same environment apart from the seed, which pairs vary on purpose. *)
let comparable a b = { a with seed = 0 } = { b with seed = 0 }

(* The shortest decimal that reads back as the same float: every digit
   a simulated metric needs to compare exactly, and no more. *)
let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 15

let rec to_string (j : J.t) =
  match j with
  | J.Float f when Float.is_finite f -> float_repr f
  | J.List xs -> "[" ^ String.concat "," (List.map to_string xs) ^ "]"
  | J.Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> J.to_string (J.String k) ^ ":" ^ to_string v) kvs)
    ^ "}"
  | j -> J.to_string j

let env_json e =
  J.Obj
    [
      ("seed", J.Int e.seed);
      ("nproc", J.Int e.nproc);
      ("shards", J.Int e.shards);
      ("ocaml", J.String e.ocaml);
      ("ocamlrunparam", J.String e.ocamlrunparam);
    ]

let metric_json ~full (v : Measure.value) =
  let short = [ ("value", J.Float v.v); ("unit", J.String v.unit_) ] in
  if not full then J.Obj short
  else
    J.Obj
      (short
      @ [ ("clock", J.String (match v.clock with Measure.Sim -> "sim" | Host -> "host")) ]
      @ (match v.spread with
        | Some (q1, q3, n) -> [ ("q1", J.Float q1); ("q3", J.Float q3); ("samples", J.Int n) ]
        | None -> [])
      @
      match v.level with
      | Some (p, n) -> [ ("level", J.Float p); ("samples", J.Int n) ]
      | None -> [])

let correct (r : Measure.result) = r.failed = 0

(* The one-line summary that ends a run's output: exactly these four
   keys. *)
let summary (r : Measure.result) =
  J.Obj
    [
      ("correct", J.Bool (correct r));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, metric_json ~full:false v)) r.metrics));
    ]

let full (r : Measure.result) =
  J.Obj
    [
      ("workload", J.String r.workload);
      ("trace", J.Int (if r.traced then 1 else 0));
      ("env", env_json (env ~seed:r.seed ~shards:r.shards));
      ("correct", J.Bool (correct r));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("failures", J.List (List.map (fun s -> J.String s) r.notes));
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, metric_json ~full:true v)) r.metrics));
      ("calls", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) r.calls));
      ("programs", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) r.programs));
    ]

(* ---- reading back ---- *)

type run = {
  path : string;
  workload : string;
  traced : bool;
  run_env : env;
  values : (string * float) list;
  simulated : string list;  (** metrics on the simulated clock *)
}

let field path key j =
  match J.member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing %S" path key)

let to_int path = function J.Int n -> n | _ -> failwith (path ^ ": expected an integer")
let to_str path = function J.String s -> s | _ -> failwith (path ^ ": expected a string")

let to_float path = function
  | J.Float f -> f
  | J.Int n -> float_of_int n
  | _ -> failwith (path ^ ": expected a number")

let read_json path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match J.of_string s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let load path =
  let j = read_json path in
  let e = field path "env" j in
  let int k = to_int path (field path k e) and str k = to_str path (field path k e) in
  let metrics =
    match field path "metrics" j with
    | J.Obj kvs -> kvs
    | _ -> failwith (path ^ ": metrics is not an object")
  in
  {
    path;
    workload = to_str path (field path "workload" j);
    traced = to_int path (field path "trace" j) = 1;
    run_env =
      {
        seed = int "seed";
        nproc = int "nproc";
        shards = int "shards";
        ocaml = str "ocaml";
        ocamlrunparam = str "ocamlrunparam";
      };
    values = List.map (fun (k, m) -> (k, to_float path (field path "value" m))) metrics;
    simulated =
      List.filter_map
        (fun (k, m) -> if to_str path (field path "clock" m) = "sim" then Some k else None)
        metrics;
  }
