(** Virtual and physical address arithmetic.

    Addresses are plain [int]s (the simulator targets a 64-bit virtual
    address space; OCaml's 63-bit ints are ample).  Pages are
    [page_size]-byte aligned ranges; a page index is an address divided by
    [page_size]. *)

type t = int
(** A virtual (or, in {!Frame_table}, physical) byte address. *)

val page_size : int
(** Bytes per page (4096, as in the paper's x86/Linux setting). *)

val page_index : t -> int
(** Page number containing the address ([Page(a)] in the paper). *)

val page_base : t -> t
(** Start address of the page containing the address. *)

val offset : t -> int
(** Offset of the address within its page ([Offset(a)] in the paper). *)

val of_page : int -> t
(** Base address of a page index. *)

val is_page_aligned : t -> bool

val align_up : t -> t
(** Smallest page-aligned address [>=] the argument. *)

val pages_spanning : t -> int -> int
(** [pages_spanning a size] is the number of distinct pages touched by the
    byte range [\[a, a+size)].  [size] must be positive. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering, e.g. [0x10003f8]. *)
