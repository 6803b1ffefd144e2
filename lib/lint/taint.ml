(* Secret-flow analysis for the C rule family (DESIGN.md §14).

   Taint seeds are key material by name (key / secret / mac, their
   suffixed forms, and tag — the latter only under lib/crypto and lib/pk,
   where "tag" means a MAC tag rather than a journal record tag) plus the
   outputs of the MAC producers (Hmac.*.mac, Mac_stream.finalize). Taint
   propagates through byte/string plumbing (Bytes.sub, concat, …) and
   through calls, via per-function summaries computed to fixpoint:

     ret_always  — the return value is tainted regardless of arguments
     ret_deps    — the return value is tainted when argument i is
     cmp_deps    — argument i reaches an early-exit comparison inside

   The sinks are OCaml's early-exit comparisons: polymorphic = / <> /
   compare and Bytes/String equal/compare. Their running time depends on
   the position of the first differing byte, so comparing a secret with
   one hands a remote attacker a timing oracle on the secret, byte by
   byte; `Bytesutil.constant_time_equal` is the sanctioned comparator and
   is deliberately NOT a sink. `Nat.compare` is also not a sink: the
   simulation-grade bignum code in lib/pk compares public curve
   coordinates with it, and flagging those would train people to waive.
   C1 fires when a directly-tainted value reaches a sink (at the compare,
   or at the call site whose argument flows to a callee's sink); C2 fires
   when a tainted value is formatted into an exception or log string.
   Arguments are matched to parameters positionally, which is exact for
   this repo's call style (labels appear in definition order). *)

module IntSet = Set.Make (Int)

type options = {
  c_paths : string list; (* file prefixes where C findings are reported *)
  secret_tag_paths : string list; (* where "tag" names a MAC tag *)
}

type tval = { direct : bool; deps : IntSet.t }

let untainted = { direct = false; deps = IntSet.empty }
let tjoin a b = { direct = a.direct || b.direct; deps = IntSet.union a.deps b.deps }

type tinfo = {
  fn : Callgraph.func;
  mutable ret_always : bool;
  mutable ret_deps : IntSet.t;
  mutable cmp_deps : IntSet.t;
}

let prefix_matches prefixes file =
  List.exists
    (fun p ->
      String.length p <= String.length file && String.sub file 0 (String.length p) = p)
    prefixes

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let seed_name ~tag_ok n =
  let n = String.lowercase_ascii n in
  n = "key" || n = "secret" || n = "ikey" || n = "okey" || n = "mac"
  || has_suffix n "_key" || has_suffix n "_secret" || has_suffix n "_mac"
  || (tag_ok && (n = "tag" || has_suffix n "_tag"))

let mac_producer_modules = [ "Hmac"; "Cmac"; "Mac_stream" ]
let mac_producer_names = [ "mac"; "mac_with"; "finalize" ]

let is_mac_producer expanded =
  List.exists (fun m -> List.mem m mac_producer_modules) expanded
  && List.mem (Summary.last expanded) mac_producer_names

let is_propagator = function
  | [ "Bytes"; op ] ->
    List.mem op
      [ "sub"; "copy"; "cat"; "concat"; "of_string"; "to_string"; "extend";
        "get"; "unsafe_get"; "sub_string" ]
  | [ "String"; op ] ->
    List.mem op [ "sub"; "concat"; "of_bytes"; "to_bytes"; "get"; "cat" ]
  | _ -> false

let cmp_sinks =
  [ [ "=" ]; [ "<>" ]; [ "compare" ]; [ "Bytes"; "equal" ]; [ "Bytes"; "compare" ];
    [ "String"; "equal" ]; [ "String"; "compare" ] ]

let is_log_sink = function
  | [ ("failwith" | "invalid_arg" | "print_string" | "print_endline"
      | "prerr_endline" | "prerr_string") ] ->
    true
  | [ ("Printf" | "Format"); _ ] -> true
  | _ -> false

(* --- the walker ----------------------------------------------------------- *)

type pass = {
  options : options;
  cg : Callgraph.t;
  infos : (string, tinfo) Hashtbl.t;
  mutable emit : Summary.raw list;
  mutable emitting : bool;
  mutable cur : tinfo;
}

let add_raw p rule loc token msg =
  if p.emitting && prefix_matches p.options.c_paths p.cur.fn.Callgraph.fn_file
  then
    p.emit <-
      {
        Summary.r_rule = rule;
        r_file = p.cur.fn.Callgraph.fn_file;
        r_loc = loc;
        r_token = token;
        r_msg = msg;
      }
      :: p.emit

let tag_ok p = prefix_matches p.options.secret_tag_paths p.cur.fn.Callgraph.fn_file

let pattern_vars pat =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it x ->
          (match x.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it x);
    }
  in
  it.pat it pat;
  !acc

let bind_pattern env pat tv =
  List.iter (fun name -> Hashtbl.replace env name tv) (pattern_vars pat)

(* Scrutinee taint distributed into a match case: only through
   "transparent" patterns (vars, aliases, tuples, records, arrays).
   Constructor payloads are NOT tainted — `match verify r with Ok (v, mac)
   | Error e`: the Error message e must not inherit the Ok branch's MAC
   taint or every error formatter lights up. Payload vars that really
   carry secrets (mac above) are caught by the name seeds instead. *)
let rec bind_case_pattern env pat tv =
  match pat.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> Hashtbl.replace env txt tv
  | Parsetree.Ppat_alias (inner, { txt; _ }) ->
    Hashtbl.replace env txt tv;
    bind_case_pattern env inner tv
  | Parsetree.Ppat_tuple pats | Parsetree.Ppat_array pats ->
    List.iter (fun x -> bind_case_pattern env x tv) pats
  | Parsetree.Ppat_record (fields, _) ->
    List.iter (fun (_, x) -> bind_case_pattern env x tv) fields
  | Parsetree.Ppat_constraint (inner, _) | Parsetree.Ppat_open (_, inner)
  | Parsetree.Ppat_lazy inner ->
    bind_case_pattern env inner tv
  | Parsetree.Ppat_or (a, b) ->
    bind_case_pattern env a tv;
    bind_case_pattern env b tv
  | _ -> ()

let note_cmp_deps p deps = p.cur.cmp_deps <- IntSet.union p.cur.cmp_deps deps

let c1_msg token =
  Printf.sprintf
    "early-exit comparison (%s) on a value carrying key/MAC material: the \
     compare returns at the first differing byte, which leaks a timing \
     oracle on the secret — use Bytesutil.constant_time_equal"
    token

let rec eval p env e =
  let open Parsetree in
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_field _ -> (
    match Callgraph.access_path e with
    | Some path when path <> [] ->
      let name = Summary.last path in
      let bound =
        match path with
        | [ v ] -> Option.value ~default:untainted (Hashtbl.find_opt env v)
        | _ -> untainted
      in
      if seed_name ~tag_ok:(tag_ok p) name then { bound with direct = true }
      else bound
    | _ -> untainted)
  | Pexp_constant _ -> untainted
  | Pexp_let (_, vbs, body) ->
    List.iter (fun vb -> bind_pattern env vb.pvb_pat (eval p env vb.pvb_expr)) vbs;
    eval p env body
  | Pexp_sequence (a, b) ->
    ignore (eval p env a);
    eval p env b
  | Pexp_ifthenelse (c, t, f) ->
    ignore (eval p env c);
    let tv = eval p env t in
    (match f with Some f -> tjoin tv (eval p env f) | None -> tv)
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let tv = eval p env scrut in
    List.fold_left
      (fun acc case ->
        bind_case_pattern env case.pc_lhs tv;
        (match case.pc_guard with
        | Some g -> ignore (eval p env g)
        | None -> ());
        tjoin acc (eval p env case.pc_rhs))
      untainted cases
  | Pexp_fun (_, default, pat, body) ->
    (match default with Some d -> ignore (eval p env d) | None -> ());
    bind_pattern env pat untainted;
    ignore (eval p env body);
    untainted
  | Pexp_function cases ->
    List.iter (fun case -> ignore (eval p env case.pc_rhs)) cases;
    untainted
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) -> eval p env arg
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> untainted
  | Pexp_tuple es | Pexp_array es ->
    List.fold_left (fun acc x -> tjoin acc (eval p env x)) untainted es
  | Pexp_record (fields, base) ->
    let tv =
      List.fold_left (fun acc (_, x) -> tjoin acc (eval p env x)) untainted fields
    in
    (match base with Some b -> tjoin tv (eval p env b) | None -> tv)
  | Pexp_constraint (x, _) -> eval p env x
  | Pexp_apply (fn, args) -> (
    match Callgraph.access_path fn with
    | Some [ op ] when op = "|>" || op = "@@" -> (
      match args with
      | [ (_, a); (_, b) ] ->
        let f, x = if op = "|>" then (b, a) else (a, b) in
        eval p env
          {
            e with
            pexp_desc = Pexp_apply (f, [ (Asttypes.Nolabel, x) ]);
          }
      | _ -> eval_default p env e)
    | Some path ->
      let tvs = List.map (fun (_, a) -> eval p env a) args in
      apply p env ~loc:e.pexp_loc ~path ~args ~tvs
    | None -> eval_default p env e)
  | _ -> eval_default p env e

and eval_default p env e =
  List.fold_left
    (fun acc sub -> tjoin acc (eval p env sub))
    untainted (Summary.sub_expressions e)

and apply p _env ~loc ~path ~args:_ ~tvs =
  let token = Callgraph.token_of_path path in
  let expanded = Callgraph.expand_alias p.cg ~scope:p.cur.fn.Callgraph.scope path in
  (* early-exit comparison sinks *)
  if List.mem expanded cmp_sinks && List.length tvs >= 2 then begin
    let joined = List.fold_left tjoin untainted tvs in
    if joined.direct then add_raw p "C1" loc token (c1_msg token);
    note_cmp_deps p joined.deps;
    untainted
  end
  else if is_log_sink expanded then begin
    let joined = List.fold_left tjoin untainted tvs in
    if joined.direct then
      add_raw p "C2" loc token
        (Printf.sprintf
           "key/MAC material flows into %s: secrets must not reach \
            exception messages or logs"
           token);
    untainted
  end
  else if is_mac_producer expanded then
    (* the produced tag is itself secret-equivalent *)
    { direct = true;
      deps = List.fold_left (fun acc t -> IntSet.union acc t.deps) IntSet.empty tvs }
  else if is_propagator expanded then List.fold_left tjoin untainted tvs
  else
    match Callgraph.resolve p.cg ~scope:p.cur.fn.Callgraph.scope path with
    | None -> untainted
    | Some g -> (
      match Hashtbl.find_opt p.infos g.Callgraph.qname with
      | None -> untainted
      | Some gi ->
        let arg i = try List.nth tvs i with _ -> untainted in
        (* a tainted argument feeding a callee-internal compare *)
        IntSet.iter
          (fun i ->
            let t = arg i in
            if t.direct then
              add_raw p "C1" loc token
                (Printf.sprintf
                   "key/MAC material passed to %s, which compares argument \
                    %d with an early-exit comparison: the timing oracle \
                    crosses the call — use Bytesutil.constant_time_equal \
                    in the callee"
                   token (i + 1));
            note_cmp_deps p t.deps)
          gi.cmp_deps;
        let direct =
          gi.ret_always || IntSet.exists (fun i -> (arg i).direct) gi.ret_deps
        in
        let deps =
          IntSet.fold
            (fun i acc -> IntSet.union acc (arg i).deps)
            gi.ret_deps IntSet.empty
        in
        { direct; deps })

(* Peel the fun chain exactly as Callgraph.fn_params does, binding each
   parameter: seed-named parameters are directly tainted, and every
   parameter carries its own index for the hypothetical summaries. *)
let rec peel_funs e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, _, body) -> peel_funs body
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_newtype (_, e) ->
    peel_funs e
  | _ -> e

let analyze_tinfo p info =
  let before = (info.ret_always, info.ret_deps, info.cmp_deps) in
  info.cmp_deps <- IntSet.empty;
  p.cur <- info;
  let env = Hashtbl.create 16 in
  List.iteri
    (fun i name ->
      if name <> "_" then
        Hashtbl.replace env name
          {
            direct = seed_name ~tag_ok:(tag_ok p) name;
            deps = IntSet.singleton i;
          })
    info.fn.Callgraph.params;
  let tv = eval p env (peel_funs info.fn.Callgraph.body) in
  info.ret_always <- tv.direct;
  info.ret_deps <- tv.deps;
  before <> (info.ret_always, info.ret_deps, info.cmp_deps)

let run ~options cg =
  let funcs = Callgraph.functions cg in
  let infos = Hashtbl.create 256 in
  List.iter
    (fun f ->
      Hashtbl.replace infos f.Callgraph.qname
        { fn = f; ret_always = false; ret_deps = IntSet.empty;
          cmp_deps = IntSet.empty })
    funcs;
  match funcs with
  | [] -> ([], infos)
  | f0 :: _ ->
    let p =
      { options; cg; infos; emit = []; emitting = false;
        cur = Hashtbl.find infos f0.Callgraph.qname }
    in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 64 do
      changed := false;
      incr rounds;
      List.iter
        (fun f ->
          if analyze_tinfo p (Hashtbl.find infos f.Callgraph.qname) then
            changed := true)
        funcs
    done;
    p.emitting <- true;
    List.iter
      (fun f -> ignore (analyze_tinfo p (Hashtbl.find infos f.Callgraph.qname)))
      funcs;
    (p.emit, infos)

let dump_tinfo (info : tinfo) =
  let set s =
    if IntSet.is_empty s then "-"
    else String.concat "," (List.map string_of_int (IntSet.elements s))
  in
  Printf.sprintf "%-44s ret=%s ret-deps=%s cmp-deps=%s" info.fn.Callgraph.qname
    (if info.ret_always then "tainted" else "clean")
    (set info.ret_deps) (set info.cmp_deps)
