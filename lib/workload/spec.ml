type category =
  | Utility
  | Server
  | Olden

type paper_numbers = {
  loc : int option;
  ratio1 : float option;
  valgrind_ratio : float option;
}

type batch = {
  name : string;
  category : category;
  description : string;
  paper : paper_numbers;
  pa_quality_gain : float;
  default_scale : int;
  run : Runtime.Scheme.t -> scale:int -> unit;
}

type server = {
  s_name : string;
  s_description : string;
  s_paper : paper_numbers;
  s_default_connections : int;
  handler : int -> Runtime.Scheme.t -> unit;
}
