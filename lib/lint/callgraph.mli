(* Program representation for the interprocedural ralint passes: parsed
   units, a table of structure-level functions under qualified names, and
   alias-aware resolution of call-site ident paths (DESIGN.md §14). *)

exception Parse_error of string * int (* message, line *)

type unit_info = {
  u_file : string;
  u_modname : string;
  u_structure : Parsetree.structure;
  u_comments : (string * Location.t) list;
}

type func = {
  qname : string; (* dotted scope + name, e.g. "Ra_cache.Store.digest" *)
  fn_file : string;
  fn_name : string;
  scope : string list; (* enclosing module path, head = unit module *)
  params : string list; (* value parameters in order; "_" for non-vars *)
  body : Parsetree.expression;
  floc : Location.t;
}

type t

(* Parse one implementation; not reentrant (compiler-libs lexer state is
   global), so parse one file at a time. Raises [Parse_error]. *)
val parse :
  file:string -> string -> Parsetree.structure * (string * Location.t) list

(* The same for an interface file. *)
val parse_interface :
  file:string -> string -> Parsetree.signature * (string * Location.t) list

val modname_of_file : string -> string
val unit_of_source : file:string -> string -> unit_info
val build : unit_info list -> t

(* Expand a leading `module A = B.C` alias visible from [scope]. *)
val expand_alias : t -> scope:string list -> string list -> string list

val resolve : t -> scope:string list -> string list -> func option
val functions : t -> func list
val token_of_path : string list -> string

(* The dotted path of an ident or field-access chain, if the expression
   is one: `disk.Disk.sync` -> Some ["disk"; "Disk"; "sync"]. *)
val access_path : Parsetree.expression -> string list option
