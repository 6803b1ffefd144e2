(* Rule I2's analysis: the vals each interface exports, and which of them
   no other unit of the tree references (DESIGN.md §14.4). *)

type export = {
  path : string list; (* enclosing submodules @ [name], e.g. ["Store"; "create"] *)
  loc : Location.t;
}

(* The vals of an interface, including those of submodules and functor
   results spelled out as signatures. *)
val exports : Parsetree.signature -> export list

(* [referenced units ~interface e]: does a unit other than [interface]'s
   own .ml reference export [e] of it? [units] is every implementation
   that counts as a caller; apply them once and query every export. An
   open, an include, a functor argument or a packed module counts as a
   use of every export under the module it names. *)
val referenced : Callgraph.unit_info list -> interface:string -> export -> bool
