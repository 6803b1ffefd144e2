(* Rule I2's analysis (DESIGN.md §14.4): which exported vals of the
   tree's interfaces some other unit references. Each implementation is
   walked once for the module paths it names, expanded through its own
   module aliases (Callgraph), and each path is then located in the unit
   it names. Anything the walk cannot pin to one value — an open, an
   include, a functor argument, a packed module — counts as a use of
   every export under the module it names: the analysis errs toward
   "used". The one way it can report a live value is a use through an
   alias declared inside a submodule of the same unit (Sub.J.x), which
   Callgraph does not expand; dropping such a value fails the build. *)

type export = { path : string list; loc : Location.t }

(* The vals of a signature, in submodules and functor results too. A
   module whose type is only named ([module S : T], [module type of])
   exports nothing here: its vals are declared elsewhere. *)
let exports signature =
  let rec items prefix sg = List.concat_map (item prefix) sg
  and item prefix (si : Parsetree.signature_item) =
    match si.psig_desc with
    | Psig_value vd -> [ { path = prefix @ [ vd.pval_name.txt ]; loc = vd.pval_loc } ]
    | Psig_module md -> declaration prefix md
    | Psig_recmodule mds -> List.concat_map (declaration prefix) mds
    | _ -> []
  and declaration prefix (md : Parsetree.module_declaration) =
    match md.pmd_name.txt with
    | Some m -> module_type (prefix @ [ m ]) md.pmd_type
    | None -> []
  and module_type prefix (mt : Parsetree.module_type) =
    match mt.pmty_desc with
    | Pmty_signature sg -> items prefix sg
    | Pmty_functor (_, body) -> module_type prefix body
    | _ -> []
  in
  items [] signature

type reference = Value of string list | Whole of string list

(* Every value path a unit names, and every module it uses whole, each
   alias-expanded (chains too) from the scope it appears in. The target
   of a [module X = A.B], [module X = F (A)] or [let module X = A.B in]
   binding is not a use by itself: uses go through X and expand to it.
   Callgraph records structure-level aliases only; one it cannot expand
   (inside [include struct ... end], say) counts as a whole use. *)
let references cg (u : Callgraph.unit_info) =
  let scope = ref [ u.u_modname ] and locals = ref [] and out = ref [] in
  let expand path =
    let local = function
      | m :: rest when List.mem_assoc m !locals -> List.assoc m !locals @ rest
      | path -> path
    in
    let rec go n path =
      let path' = Callgraph.expand_alias cg ~scope:!scope (local path) in
      if n = 0 || path' = path then path else go (n - 1) path'
    in
    go 8 path
  in
  let add kind lid = out := kind (expand (Longident.flatten lid)) :: !out in
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> add (fun p -> Value p) txt
    | Pexp_letmodule ({ txt = Some m; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body)
      ->
      let outer = !locals in
      locals := (m, expand (Longident.flatten txt)) :: outer;
      it.expr it body;
      locals := outer
    | _ -> default_iterator.expr it e
  in
  let module_expr it (me : Parsetree.module_expr) =
    (match me.pmod_desc with
    | Pmod_ident { txt; _ } -> add (fun p -> Whole p) txt
    | _ -> ());
    default_iterator.module_expr it me
  in
  let module_binding it (mb : Parsetree.module_binding) =
    let recorded =
      match mb.pmb_name.txt with
      | Some m -> Callgraph.expand_alias cg ~scope:!scope [ m ] <> [ m ]
      | None -> false
    in
    let rec body (me : Parsetree.module_expr) =
      match me.pmod_desc with
      | Pmod_ident _ when recorded -> ()
      | Pmod_apply (({ pmod_desc = Pmod_ident _; _ } as f), arg) ->
        if not recorded then it.module_expr it f;
        it.module_expr it arg
      | Pmod_constraint (me, _) -> body me
      | _ ->
        let outer = !scope in
        Option.iter (fun m -> scope := outer @ [ m ]) mb.pmb_name.txt;
        it.module_expr it me;
        scope := outer
    in
    body mb.pmb_expr
  in
  let it = { default_iterator with expr; module_expr; module_binding } in
  it.structure it u.u_structure;
  !out

let rec is_prefix prefix path =
  match (prefix, path) with
  | [], _ -> true
  | p :: prefix, q :: path -> p = q && is_prefix prefix path
  | _ :: _, [] -> false

let referenced units =
  let units = List.map (fun u -> (u, Callgraph.build [ u ])) units in
  let by_name = Hashtbl.create 256 in
  List.iter
    (fun (((u : Callgraph.unit_info), _) as unit) -> Hashtbl.add by_name u.u_modname unit)
    units;
  (* The units the leftmost unit-naming component of a path denotes, and
     the rest of the path. A unit never names itself, so the referencing
     file drops out. Every other unit of that name counts: e2ebench's
     Stats does not hide lib's, and a use that OCaml resolves to one of
     them keeps both alive, which errs toward "used". *)
  let locate (u : Callgraph.unit_info) path =
    let rec go = function
      | [] -> None
      | m :: rest -> (
        match
          List.filter
            (fun ((t : Callgraph.unit_info), _) -> t.u_file <> u.u_file)
            (Hashtbl.find_all by_name m)
        with
        | [] -> go rest
        | targets -> Some (targets, rest))
    in
    go path
  in
  let values = Hashtbl.create 1024 and wholes = ref [] in
  List.iter
    (fun ((u : Callgraph.unit_info), cg) ->
      List.iter
        (fun r ->
          let path = match r with Value p | Whole p -> p in
          match locate u path with
          | None -> ()
          | Some (targets, rest) ->
            List.iter
              (fun ((t : Callgraph.unit_info), tcg) ->
                (* a functor instance of the target (Hmac.Sha256) stands
                   for the functor's own exports (Hmac.Make) *)
                List.iter
                  (fun rest ->
                    match r with
                    | Value _ -> Hashtbl.replace values (t.u_file, rest) ()
                    | Whole _ -> wholes := (t.u_file, rest) :: !wholes)
                  [ rest; Callgraph.expand_alias tcg ~scope:[ t.u_modname ] rest ])
              targets)
        (references cg u))
    units;
  fun ~interface e ->
    let ml = Filename.remove_extension interface ^ ".ml" in
    Hashtbl.mem values (ml, e.path)
    || List.exists (fun (f, prefix) -> f = ml && is_prefix prefix e.path) !wholes
