(* Secret-flow analysis for the C rule family: name-seeded key/MAC taint
   propagated through byte plumbing and call summaries to fixpoint; sinks
   are early-exit comparisons (C1) and exception/log formatting (C2).
   DESIGN.md §14. *)

module IntSet : Set.S with type elt = int

type options = {
  c_paths : string list; (* file prefixes where C findings are reported *)
  secret_tag_paths : string list; (* where "tag" names a MAC tag *)
}

type tinfo = {
  fn : Callgraph.func;
  mutable ret_always : bool;
  mutable ret_deps : IntSet.t;
  mutable cmp_deps : IntSet.t;
}

val run :
  options:options -> Callgraph.t -> Summary.raw list * (string, tinfo) Hashtbl.t

val dump_tinfo : tinfo -> string
