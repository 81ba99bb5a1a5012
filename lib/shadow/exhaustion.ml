let check ~va_bytes ~page_bytes ~pages_per_second =
  if not (va_bytes >= 0.) (* also rejects nan *) then
    invalid_arg "Exhaustion: va_bytes < 0";
  if page_bytes <= 0 then invalid_arg "Exhaustion: page_bytes <= 0";
  if not (pages_per_second > 0.) (* also rejects nan *) then
    invalid_arg "Exhaustion: pages_per_second <= 0";
  (* the checks above leave +infinity as the only non-finite input *)
  if not (Float.is_finite va_bytes) then
    invalid_arg "Exhaustion: va_bytes is infinite";
  if not (Float.is_finite pages_per_second) then
    invalid_arg "Exhaustion: pages_per_second is infinite"

let seconds_until_exhaustion ~va_bytes ~page_bytes ~pages_per_second =
  check ~va_bytes ~page_bytes ~pages_per_second;
  (* Finite inputs can still leave the float range: a huge rate
     overflows the byte rate (a zero duration), a tiny one the
     quotient. *)
  let bytes_per_second = float_of_int page_bytes *. pages_per_second in
  if not (Float.is_finite bytes_per_second) then
    invalid_arg "Exhaustion: byte rate is infinite";
  let seconds = va_bytes /. bytes_per_second in
  if not (Float.is_finite seconds) then
    invalid_arg "Exhaustion: duration is not finite";
  seconds

let hours_until_exhaustion ~va_bytes ~page_bytes ~pages_per_second =
  seconds_until_exhaustion ~va_bytes ~page_bytes ~pages_per_second /. 3600.

let paper_example_hours () =
  hours_until_exhaustion ~va_bytes:(2. ** 47.) ~page_bytes:4096
    ~pages_per_second:1e6

let pages_for_runtime ~seconds ~allocs_per_second ~pages_per_alloc =
  seconds *. allocs_per_second *. pages_per_alloc
