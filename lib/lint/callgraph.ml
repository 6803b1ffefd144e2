(* Program representation for the interprocedural ralint passes
   (DESIGN.md §14): every scanned file parsed once, every structure-level
   function binding registered under a qualified name, and call-site
   ident paths resolved through module aliases to those names. The
   resolution is deliberately syntactic — module name = capitalised file
   basename, submodules and functor bodies tracked by nesting, `module
   J = Ra_journal.Journal` aliases expanded — which is exact for this
   repo's flat dune layout and degrades to "unresolved" (never to a wrong
   edge) on anything fancier. *)

exception Parse_error of string * int (* message, line *)

(* Parse one source file with [parser], returning the tree and the comment
   list the lexer accumulated alongside it. Compiler-libs keeps comment
   state globally, so this is not reentrant — parse one file at a time. *)
let parse_with parser ~file source =
  Lexer.init ();
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match parser lexbuf with
  | tree -> (tree, Lexer.comments ())
  | exception Syntaxerr.Error err ->
    let loc = Syntaxerr.location_of_error err in
    raise (Parse_error ("syntax error", loc.loc_start.pos_lnum))
  | exception Lexer.Error (_, loc) ->
    raise (Parse_error ("lexer error", loc.loc_start.pos_lnum))

let parse ~file source = parse_with Parse.implementation ~file source
let parse_interface ~file source = parse_with Parse.interface ~file source

type unit_info = {
  u_file : string;
  u_modname : string; (* capitalised basename: lib/cache/ra_cache.ml -> Ra_cache *)
  u_structure : Parsetree.structure;
  u_comments : (string * Location.t) list;
}

type func = {
  qname : string; (* dotted scope + name, e.g. "Ra_cache.Store.digest" *)
  fn_file : string;
  fn_name : string;
  scope : string list; (* enclosing module path, head = unit module *)
  params : string list; (* value parameters in order; "_" for non-vars *)
  body : Parsetree.expression; (* the whole binding expression (fun chain) *)
  floc : Location.t;
}

type t = {
  units : unit_info list;
  funcs : (string, func) Hashtbl.t; (* qname -> func *)
  unit_mods : (string, string) Hashtbl.t; (* module name -> file *)
  aliases : (string * string, string list) Hashtbl.t;
      (* (dotted scope, alias) -> target path, from `module A = B.C` and
         `module A = F (X)` (the functor case maps to F's body) *)
}

let modname_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

let unit_of_source ~file source =
  let str, comments = parse ~file source in
  {
    u_file = file;
    u_modname = modname_of_file file;
    u_structure = str;
    u_comments = comments;
  }

let dotted = String.concat "."

(* Value parameters of a binding, peeled off the fun chain. Labelled and
   optional arguments keep their label name (that is what taint seeding
   matches on); unnamed patterns become "_". *)
let rec fn_params e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (label, _, pat, body) ->
    let name =
      match label with
      | Asttypes.Labelled l | Asttypes.Optional l -> l
      | Asttypes.Nolabel -> (
        match pat.Parsetree.ppat_desc with
        | Parsetree.Ppat_var { txt; _ } -> txt
        | Parsetree.Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
          txt
        | _ -> "_")
    in
    name :: fn_params body
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_newtype (_, e) ->
    fn_params e
  | _ -> []

let build units =
  let t =
    {
      units;
      funcs = Hashtbl.create 256;
      unit_mods = Hashtbl.create 64;
      aliases = Hashtbl.create 32;
    }
  in
  let register_funcs u =
    Hashtbl.replace t.unit_mods u.u_modname u.u_file;
    let rec walk_structure scope items =
      List.iter (walk_item scope) items
    and walk_item scope item =
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.Parsetree.pvb_pat.ppat_desc with
            | Parsetree.Ppat_var { txt = name; _ } ->
              let qname = dotted (scope @ [ name ]) in
              Hashtbl.replace t.funcs qname
                {
                  qname;
                  fn_file = u.u_file;
                  fn_name = name;
                  scope;
                  params = fn_params vb.pvb_expr;
                  body = vb.pvb_expr;
                  floc = vb.pvb_loc;
                }
            | _ -> ())
          vbs
      | Parsetree.Pstr_module
          { pmb_name = { txt = Some m; _ }; pmb_expr; _ } ->
        walk_module (scope @ [ m ]) pmb_expr
      | Parsetree.Pstr_recmodule mbs ->
        List.iter
          (fun (mb : Parsetree.module_binding) ->
            match mb.pmb_name.txt with
            | Some m -> walk_module (scope @ [ m ]) mb.pmb_expr
            | None -> ())
          mbs
      | _ -> ()
    and walk_module scope mexpr =
      match mexpr.Parsetree.pmod_desc with
      | Parsetree.Pmod_structure items -> walk_structure scope items
      | Parsetree.Pmod_functor (_, body) ->
        (* functions land directly under the functor's name: every
           instantiation shares one summary, which is sound for effects *)
        walk_module scope body
      | Parsetree.Pmod_constraint (m, _) -> walk_module scope m
      | Parsetree.Pmod_ident { txt; _ } ->
        (match (List.rev scope, Longident.flatten txt) with
        | alias :: outer_rev, target ->
          Hashtbl.replace t.aliases
            (dotted (List.rev outer_rev), alias)
            target
        | [], _ -> ())
      | Parsetree.Pmod_apply (f, _) -> (
        (* module Sha256 = Make (Sha256): calls through the instance
           resolve to the functor body's functions *)
        match (f.Parsetree.pmod_desc, List.rev scope) with
        | Parsetree.Pmod_ident { txt; _ }, alias :: outer_rev ->
          Hashtbl.replace t.aliases
            (dotted (List.rev outer_rev), alias)
            (Longident.flatten txt)
        | _ -> ())
      | _ -> ()
    in
    walk_structure [ u.u_modname ] u.u_structure
  in
  List.iter register_funcs units;
  t

(* Enclosing scope prefixes, innermost first: ["Ra_cache";"Store"] ->
   [["Ra_cache";"Store"]; ["Ra_cache"]]. *)
let rec scope_prefixes scope =
  match scope with
  | [] -> []
  | _ -> scope :: scope_prefixes (List.filteri (fun i _ -> i < List.length scope - 1) scope)

(* Expand a leading module alias visible from [scope] (innermost wins). *)
let expand_alias t ~scope path =
  match path with
  | head :: rest ->
    let rec try_scopes = function
      | [] -> path
      | prefix :: outer -> (
        match Hashtbl.find_opt t.aliases (dotted prefix, head) with
        | Some target -> target @ rest
        | None -> try_scopes outer)
    in
    try_scopes (scope_prefixes scope @ [ [] ])
  | [] -> path

(* Resolve a call-site ident path to a registered function, if any. *)
let resolve t ~scope path =
  let try_qname parts = Hashtbl.find_opt t.funcs (dotted parts) in
  let first_some f l = List.fold_left (fun acc x -> match acc with Some _ -> acc | None -> f x) None l in
  match path with
  | [] -> None
  | [ f ] ->
    (* unqualified: innermost enclosing module first *)
    first_some (fun prefix -> try_qname (prefix @ [ f ])) (scope_prefixes scope)
  | _ -> (
    let expanded = expand_alias t ~scope path in
    (* same-unit submodule reference, innermost enclosing scope first *)
    match
      first_some
        (fun prefix -> try_qname (prefix @ expanded))
        (scope_prefixes scope)
    with
    | Some f -> Some f
    | None -> (
      (* cross-unit: leftmost component that names a scanned unit *)
      let rec from_unit = function
        | m :: rest when Hashtbl.mem t.unit_mods m -> try_qname (m :: rest)
        | _ :: (_ :: _ as rest) -> from_unit rest
        | _ -> None
      in
      match from_unit expanded with
      | Some f -> Some f
      | None ->
        (* functor instance two levels deep: Hmac.Sha256.mac where
           Sha256 aliases Make inside unit Hmac *)
        (match expanded with
        | u :: inst :: rest when Hashtbl.mem t.unit_mods u -> (
          match Hashtbl.find_opt t.aliases (u, inst) with
          | Some target -> try_qname (u :: (target @ rest))
          | None -> None)
        | _ -> None)))

let functions t =
  List.sort
    (fun a b -> compare a.qname b.qname)
    (Hashtbl.fold (fun _ f acc -> f :: acc) t.funcs [])

(* The token a finding reports for a call or access site: the dotted
   source path as written (not alias-expanded), so fingerprints track what
   the file says. *)
let token_of_path = dotted

(* --- expression helpers shared by the passes ----------------------------- *)

(* The dotted path of an ident or a field-access chain: `J.append` ->
   ["J";"append"], `s.mutex` -> ["s";"mutex"], `disk.Disk.sync` ->
   ["disk";"Disk";"sync"]. Anything else -> None. *)
let rec access_path e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | Parsetree.Pexp_field (base, { txt; _ }) -> (
    match access_path base with
    | Some p -> Some (p @ Longident.flatten txt)
    | None -> Some (Longident.flatten txt))
  | _ -> None
