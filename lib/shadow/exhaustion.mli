(** The paper's §3.4 back-of-envelope model of virtual-address-space
    exhaustion when shadow pages are never reused: on a 64-bit system
    with 2^47 user-space bytes, a program burning one 4K page per
    microsecond runs for ~9.5 hours before exhausting addresses. *)

val seconds_until_exhaustion :
  va_bytes:float -> page_bytes:int -> pages_per_second:float -> float
(** Time until [va_bytes] of address space are consumed at
    [pages_per_second] fresh pages of [page_bytes] each.

    Raises [Invalid_argument] rather than returning a nonsense duration
    when [va_bytes < 0.], [page_bytes <= 0], or
    [pages_per_second <= 0.] (a non-allocating program never exhausts
    anything; [infinity] here used to silently poison downstream
    budget arithmetic).  NaN and infinite inputs are likewise rejected:
    an infinite rate would give a zero duration, an infinite address
    space an infinite one.  So are finite inputs whose byte rate or
    duration leaves the float range (a rate of [1e-300] pages/s). *)

val hours_until_exhaustion :
  va_bytes:float -> page_bytes:int -> pages_per_second:float -> float

val paper_example_hours : unit -> float
(** The paper's numbers: 2^47 bytes, 4K pages, one allocation (page) per
    microsecond — about 9.5 hours ("at least 9 hours" in the text). *)

val pages_for_runtime :
  seconds:float -> allocs_per_second:float -> pages_per_alloc:float -> float
(** Address-space pages needed to run for a given time without reuse. *)
