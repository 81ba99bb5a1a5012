(** Behavioural models of the paper's five daemons, all following the
    fork-per-connection structure §4.3 documents (tftpd even forks per
    command).  Handlers are written against a fresh per-connection
    {!Runtime.Scheme.t}, which is how {!Runtime.Process} models fork:
    address-space wastage dies with the child.

    Allocation counts follow the paper's measurements: ghttpd performs
    one dynamic allocation per connection; ftpd about 5–6 global-pool
    allocations per command plus a short-lived pool inside its
    [fb_realpath]; telnetd 45 small allocations per session before
    handing off to the shell. *)

val ghttpd : Spec.server
val ftpd : Spec.server
val telnetd : Spec.server

val all : Spec.server list

val ftpd_commands_per_connection : int
val telnetd_setup_allocations : int
