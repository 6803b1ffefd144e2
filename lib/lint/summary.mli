(* Interprocedural lock-discipline (L) and protocol-order (O) analysis:
   per-function summaries over an abstract held-locks + journal-phase
   state, iterated to fixpoint over the call graph (DESIGN.md §14). *)

type raw = {
  r_rule : string;
  r_file : string;
  r_loc : Location.t;
  r_token : string;
  r_msg : string;
}

type options = {
  o_core : string list; (* file prefixes where O1 (journal-before-Ack) applies *)
  digest_guard : (string * string) list;
      (* (file prefix, submodule): kernel digests must run under a lock *)
}

type jeff = J_id | J_appended | J_committed

type info = {
  fn : Callgraph.func;
  mutable acquires : string list;
  mutable order : (string * string * Location.t) list;
  mutable blocking : string option;
  mutable digest_unlocked : (string * Location.t) option;
  mutable jeff : jeff;
}

(* Fixpoint + emission: raw L1/L2/L3/L4/O1/O2 findings (unsuppressed,
   unfingerprinted) and the converged per-function summaries. *)
val run : options:options -> Callgraph.t -> raw list * (string, info) Hashtbl.t

val dump_info : info -> string

(* Shared walker helpers, also used by the taint pass. *)
val last : string list -> string
val sub_expressions : Parsetree.expression -> Parsetree.expression list
