(** A Valgrind/memcheck-style checker model: dynamic binary translation
    plus software validity checks on every access, with freed blocks held
    in a bounded quarantine to {e delay} (not prevent) reuse.

    Two properties matter for the paper's comparison and both are
    modeled: the overhead is orders of magnitude above the paper's
    scheme (every access pays an instrumented check, and all computation
    runs under translation), and detection is only {e heuristic} — once a
    freed block leaves the quarantine and its memory is re-allocated, a
    dangling use of the old pointer reads the new object silently.
    Each checked access costs 60 instructions and plain computation
    runs 12x slower under translation. *)

val scheme : ?quarantine_blocks:int -> Vmm.Machine.t -> Scheme.t
(** [quarantine_blocks] (default 1000) freed blocks are retained before
    the oldest is really freed. *)
