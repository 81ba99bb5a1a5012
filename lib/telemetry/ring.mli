(** A bounded ring buffer: keeps the most recent [capacity] items and
    counts what it had to drop.  This is the storage behind the event
    trace — memory use is fixed no matter how long the run. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** Appends, evicting the oldest item when full. *)

val to_list : 'a t -> 'a list
(** Retained items, oldest first. *)

val length : 'a t -> int

val pushed : 'a t -> int
(** Total items ever pushed. *)

val dropped : 'a t -> int
(** [pushed - length]: items evicted by wraparound. *)

val clear : 'a t -> unit
