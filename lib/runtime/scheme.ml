type pool_handle = {
  pool_alloc : ?site:string -> int -> Vmm.Addr.t;
  pool_free : ?site:string -> Vmm.Addr.t -> unit;
  pool_destroy : unit -> unit;
}

type introspection = ..
type introspection += No_introspection

type t = {
  name : string;
  machine : Vmm.Machine.t;
  malloc : ?site:string -> int -> Vmm.Addr.t;
  free : ?site:string -> Vmm.Addr.t -> unit;
  load : Vmm.Addr.t -> width:int -> int;
  store : Vmm.Addr.t -> width:int -> int -> unit;
  pool_create : ?elem_size:int -> unit -> pool_handle;
  compute : int -> unit;
  extra_memory_bytes : unit -> int;
  guarantees_detection : bool;
  introspection : introspection;
}

let cycles t = Vmm.Machine.cycles t.machine
