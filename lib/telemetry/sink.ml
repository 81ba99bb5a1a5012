type t = {
  enabled : bool;
  mutable period : int;
  ring : Event.t Ring.t;
  mutable clock : unit -> float;
  mutable seen : int;
  mutable recorded : int;
}

let make ~enabled ~capacity ~sample_every =
  if sample_every <= 0 then invalid_arg "Sink: sample_every <= 0";
  {
    enabled;
    period = sample_every;
    ring = Ring.create ~capacity;
    clock = (fun () -> 0.);
    seen = 0;
    recorded = 0;
  }

let disabled () = make ~enabled:false ~capacity:1 ~sample_every:1

let create ?(capacity = 65536) ?(sample_every = 1) () =
  make ~enabled:true ~capacity ~sample_every

let enabled t = t.enabled
let set_clock t f = t.clock <- f

let record t kind =
  t.recorded <- t.recorded + 1;
  Ring.push t.ring { Event.seq = t.recorded; at = t.clock (); kind }

let emit t f =
  if t.enabled then begin
    t.seen <- t.seen + 1;
    if t.period = 1 || (t.seen - 1) mod t.period = 0 then record t (f ())
  end

let emit_always t f = if t.enabled then record t (f ())

let events t = Ring.to_list t.ring
let recorded t = t.recorded
let seen t = t.seen
let dropped t = Ring.dropped t.ring
let sample_every t = t.period

let clear t =
  Ring.clear t.ring;
  t.seen <- 0;
  t.recorded <- 0
