(* compiler_pools: the paper's Figures 1 and 2, live.

     dune exec examples/compiler_pools.exe

   Parses the running example, prints the program before and after the
   Automatic Pool Allocation transform (showing poolinit/pooldestroy
   placement and descriptor threading), then runs the buggy variant of
   Figure 1 under the full scheme to show the dangling dereference
   caught by the MMU — and the address-space reuse across calls to f()
   that pool allocation enables. *)

let figure1 =
  {|
struct s { int val; struct s *next; }

// g builds a list hanging off p, then frees all of it except the head --
// leaving p->next->next dangling in the caller.
void g(struct s *p) {
  struct s *head = malloc(struct s);
  p->next = head;
  head->val = 7;
  head->next = null;
  struct s *cur = head;
  int i = 0;
  while (i < 10) {
    cur->next = malloc(struct s);
    cur = cur->next;
    cur->val = i;
    cur->next = null;
    i = i + 1;
  }
  // free_all_but_head
  cur = head->next;
  while (cur != null) {
    struct s *nxt = cur->next;
    free(cur);
    cur = nxt;
  }
}

void f() {
  struct s *p = malloc(struct s);
  p->val = 0;
  p->next = null;
  g(p);
  print(p->next->val);        // ok: the head survives
  print(p->next->next->val);  // BUG: freed inside g (Figure 1's error)
}

void main() { f(); }
|}

let rule title =
  Printf.printf "\n---------------- %s ----------------\n" title

let () =
  let program = Minic.Parser.parse figure1 in
  Minic.Typecheck.check program;

  rule "Figure 1: the original program";
  print_endline (Minic.Pretty.program_to_string program);

  let transformed, summary = Minic.Pool_transform.transform program in
  rule "Figure 2: after Automatic Pool Allocation";
  Printf.printf "pools: %s\n\n"
    (String.concat ", "
       (List.map
          (fun (d : Minic.Pool_transform.pool_desc) ->
            Printf.sprintf "%s (owner %s%s)" d.Minic.Pool_transform.pool_var
              d.Minic.Pool_transform.owner
              (if d.Minic.Pool_transform.global then ", global" else ""))
          summary.Minic.Pool_transform.pools));
  print_endline (Minic.Pretty.program_to_string transformed);

  rule "Running under the plain allocator";
  let native = Runtime.Schemes.native (Vmm.Machine.create ()) in
  let outcome = Minic.Interp.run program native in
  assert (outcome.Minic.Interp.stopped = None);
  List.iter (Printf.printf "print: %d\n") outcome.Minic.Interp.prints;
  print_endline "(the dangling read silently returned stale/reused memory)";

  rule "Running under the shadow-page + pool scheme";
  let machine = Vmm.Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool machine in
  (match Minic.Interp.run transformed scheme with
   | { stopped = Some { outcome = Minic.Interp.Detected report; _ }; _ }
     ->
     Printf.printf "DETECTED: %s\n" (Shadow.Report.to_string report)
   | outcome ->
     List.iter (Printf.printf "print: %d\n") outcome.Minic.Interp.prints;
     print_endline "unexpected: the bug was not detected");

  rule "Address-space reuse across invocations of f()";
  (* Remove the buggy second print and call f() repeatedly: pooldestroy
     at f's exit releases every page for reuse, so address space is flat
     no matter how many times f runs. *)
  let correct_source =
    String.concat "\n"
      (List.filter
         (fun line ->
           not (String.length line > 0
                && String.trim line = "print(p->next->next->val);  // BUG: freed inside g (Figure 1's error)"))
         (String.split_on_char '\n' figure1))
  in
  let correct, _ =
    Minic.Pool_transform.transform (Minic.Parser.parse correct_source)
  in
  let m = Vmm.Machine.create () in
  let s = Runtime.Schemes.shadow_pool m in
  let va_after n =
    for _ = 1 to n do
      assert ((Minic.Interp.run correct s).Minic.Interp.stopped = None)
    done;
    Vmm.Machine.va_bytes_used m
  in
  let va1 = va_after 1 in
  let va10 = va_after 9 in
  Printf.printf "after 1 run of main: %s; after 10 runs: %s (flat = reused)\n"
    (Harness.Table.fmt_bytes va1)
    (Harness.Table.fmt_bytes va10)
