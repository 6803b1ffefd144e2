(* Summary-based interprocedural analysis for the L (lock discipline) and
   O (protocol order) rule families (DESIGN.md §14).

   Each function body is walked once per fixpoint round by a small
   abstract interpreter whose state is the multiset of currently-held
   lock classes plus a journal phase (none / appended / committed).
   Branches fork the state and join conservatively: held locks join by
   union (a lock held on SOME path counts as held), the journal phase by
   minimum (an Ack is only safe if EVERY path journaled first), and
   diverging branches (raise / failwith / exit) drop out of the join.
   Lambda literals are walked where they appear, joined as "runs zero or
   more times at this program point" — which is exactly how the repo uses
   them (iterators under a held stripe lock).

   Per-function summaries — lock classes transitively acquired, a
   blocking-call witness, kernel-digest reachability while unlocked, the
   guaranteed journal effect — feed back into callers on the next round;
   the lattices are finite and grow monotonically, so the fixpoint
   terminates in a handful of rounds. Findings are emitted in a final
   pass over the converged summaries. *)

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
      (* (file prefix, submodule name): where kernel digests must happen
         under a held lock (rule L4) *)
}

type jeff = J_id | J_appended | J_committed

type info = {
  fn : Callgraph.func;
  mutable acquires : string list; (* sorted distinct lock classes, transitive *)
  mutable order : (string * string * Location.t) list; (* held before acquired *)
  mutable blocking : string option; (* witness token, transitive *)
  mutable digest_unlocked : (string * Location.t) option;
      (* witness: a kernel digest reachable from entry with no lock held *)
  mutable jeff : jeff; (* guaranteed journal effect on every non-diverging path *)
}

let prefix_matches prefixes file =
  List.exists
    (fun p ->
      String.length p <= String.length file && String.sub file 0 (String.length p) = p)
    prefixes

let in_digest_guard options (f : Callgraph.func) =
  List.exists
    (fun (prefix, submodule) ->
      prefix_matches [ prefix ] f.Callgraph.fn_file
      && List.mem submodule f.Callgraph.scope)
    options.digest_guard

(* --- classification helpers ---------------------------------------------- *)

let last = function [] -> "" | l -> List.nth l (List.length l - 1)

(* The lock class of `Mutex.lock E`: the file plus the innermost name of
   the lock expression, so every stripe of lib/cache's store shares one
   class ("…ra_cache.ml:mutex") that is distinct from the pool mutex of
   lib/parallel. *)
let lock_class ~file arg =
  let name =
    match Callgraph.access_path arg with
    | Some p when p <> [] -> last p
    | _ -> "_lock"
  in
  file ^ ":" ^ name

let crypto_kernel_modules =
  [ "Algo"; "Sha256"; "Sha512"; "Blake2b"; "Blake2s"; "Checked" ]

let kernel_names = [ "digest" ]

(* A call that actually hashes bytes: resolved into lib/crypto, or (for
   unresolved fixtures) a token like Algo.digest. *)
let is_digest_kernel ~resolved expanded =
  match resolved with
  | Some (g : Callgraph.func) ->
    prefix_matches [ "lib/crypto/" ] g.Callgraph.fn_file
    && List.mem g.Callgraph.fn_name kernel_names
  | None ->
    List.mem (last expanded) kernel_names
    && List.exists (fun m -> List.mem m crypto_kernel_modules) expanded

(* Calls that can block the holder of a lock: live syscalls (minus pure
   clock reads, which are D2's business and harmless under a lock),
   fsyncs through the Disk abstraction, and joining a domain. *)
let is_blocking ~resolved:_ expanded =
  match expanded with
  | "Unix" :: rest -> rest <> [ "gettimeofday" ] && rest <> [ "time" ]
  | [ "Domain"; "join" ] -> true
  | p ->
    let l = last p in
    l = "fsync" || l = "sync_dir" || (l = "sync" && List.mem "Disk" p)

(* Journal-module operations, matched on the alias-expanded path so that
   `module J = Ra_journal.Journal` call sites count. *)
let journal_op expanded =
  if List.mem "Journal" expanded then
    match last expanded with
    | ("append" | "commit" | "restart") as op -> Some op
    | _ -> None
  else None

let diverging_calls = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

(* --- abstract state ------------------------------------------------------ *)

type st = { held : string list; j : int (* 0 none, 1 appended, 2 committed *) }

let entry_state = { held = []; j = 0 }

let union a b = List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) a b

(* Join of branch exits; [None] marks a diverging branch. *)
let join a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some { held = union a.held b.held; j = min a.j b.j }

(* Immediate sub-expressions, for constructs the walker has no special
   case for: one level of the default traversal with a non-recursing
   collector. *)
let sub_expressions e =
  let acc = ref [] in
  let it =
    { Ast_iterator.default_iterator with expr = (fun _ x -> acc := x :: !acc) }
  in
  Ast_iterator.default_iterator.expr it e;
  List.rev !acc

(* --- the interpreter ----------------------------------------------------- *)

type pass = {
  options : options;
  cg : Callgraph.t;
  infos : (string, info) Hashtbl.t;
  mutable emit : raw list; (* only filled during the final pass *)
  mutable emitting : bool;
  mutable edges : (string * string) list; (* caller -> resolved callee *)
  (* facts accumulated for the CURRENT function's summary *)
  mutable cur : info;
}

let add_raw p rule loc token msg =
  if p.emitting then
    p.emit <-
      { r_rule = rule; r_file = p.cur.fn.Callgraph.fn_file; r_loc = loc;
        r_token = token; r_msg = msg }
      :: p.emit

let note_acquire p cls = p.cur.acquires <- union p.cur.acquires [ cls ]

let note_order p held cls loc =
  List.iter
    (fun h ->
      if h <> cls
         && not (List.exists (fun (a, b, _) -> a = h && b = cls) p.cur.order)
      then p.cur.order <- (h, cls, loc) :: p.cur.order)
    held

let note_blocking p token =
  if p.cur.blocking = None then p.cur.blocking <- Some token

let note_digest_unlocked p token loc =
  if p.cur.digest_unlocked = None then p.cur.digest_unlocked <- Some (token, loc)

let remove_one x l =
  let rec go = function
    | [] -> []
    | y :: rest -> if y = x then rest else y :: go rest
  in
  go l

let scope p = p.cur.fn.Callgraph.scope
let file p = p.cur.fn.Callgraph.fn_file

let in_o_core p = prefix_matches p.options.o_core (file p)

(* Process one call site. [args] are the labelled arguments of the
   application (already walked); returns the state after the call. *)
let apply_call p st ~loc ~path ~args =
  let token = Callgraph.token_of_path path in
  let expanded = Callgraph.expand_alias p.cg ~scope:(scope p) path in
  let resolved = Callgraph.resolve p.cg ~scope:(scope p) path in
  (match resolved with
  | Some g -> p.edges <- (p.cur.fn.Callgraph.qname, g.Callgraph.qname) :: p.edges
  | None -> ());
  match expanded with
  | [ "Mutex"; "lock" ] ->
    let cls =
      match args with
      | (_, arg) :: _ -> lock_class ~file:(file p) arg
      | [] -> file p ^ ":_lock"
    in
    if List.mem cls st.held then
      add_raw p "L1" loc token
        (Printf.sprintf
           "double acquire of lock class %s: this path already holds it, so \
            a second Mutex.lock self-deadlocks the domain"
           cls);
    note_acquire p cls;
    note_order p st.held cls loc;
    { st with held = cls :: st.held }
  | [ "Mutex"; "unlock" ] ->
    let cls =
      match args with
      | (_, arg) :: _ -> lock_class ~file:(file p) arg
      | [] -> file p ^ ":_lock"
    in
    { st with held = remove_one cls st.held }
  | _ ->
    (* journal phase *)
    let st =
      match journal_op expanded with
      | Some "append" -> { st with j = 1 }
      (* a commit makes every record appended so far durable, on this
         path or by an earlier call: a batch's admits append and its
         commit answers, so an Ack below an unconditional commit is
         clean whoever appended *)
      | Some "commit" -> { st with j = 2 }
      | Some "restart" ->
        let has_validate =
          List.exists
            (fun (lbl, _) ->
              match lbl with
              | Asttypes.Labelled "validate" | Asttypes.Optional "validate" ->
                true
              | _ -> false)
            args
        in
        if not has_validate then
          add_raw p "O2" loc token
            "Journal.restart without ~validate: recovery must check the \
             journal's consistency point before resuming, or a truncated \
             log silently resumes from a state the fleet never reached";
        st
      | _ -> st
    in
    (* blocking *)
    if is_blocking ~resolved expanded then begin
      note_blocking p token;
      if st.held <> [] then
        add_raw p "L3" loc token
          (Printf.sprintf
             "blocking call %s while holding lock class %s: a stalled \
              syscall under a lock stalls every domain contending for it"
             token (String.concat ", " st.held))
    end;
    (* kernel digests under the store guard *)
    if is_digest_kernel ~resolved expanded then begin
      if st.held = [] then note_digest_unlocked p token loc
    end;
    (* summaries of resolved callees *)
    (match resolved with
    | None -> st
    | Some g -> (
      match Hashtbl.find_opt p.infos g.Callgraph.qname with
      | None -> st
      | Some gi ->
        List.iter
          (fun h ->
            if List.mem h gi.acquires then
              add_raw p "L1" loc token
                (Printf.sprintf
                   "call to %s while holding lock class %s, which it may \
                    acquire again (via %s): self-deadlock on re-entry"
                   token h g.Callgraph.qname))
          st.held;
        (* order pairs across the call: held here, acquired in callee *)
        List.iter
          (fun a -> if not (List.mem a st.held) then note_order p st.held a loc)
          gi.acquires;
        (match gi.blocking with
        | Some w ->
          if st.held <> [] then
            add_raw p "L3" loc token
              (Printf.sprintf
                 "call to %s while holding lock class %s blocks (via %s): a \
                  stalled syscall under a lock stalls every contender"
                 token (String.concat ", " st.held) w);
          note_blocking p ("via " ^ g.Callgraph.qname)
        | None -> ());
        (* kernel reachability for L4: calling a function that can reach a
           digest kernel without acquiring a lock on the way, while not
           holding one here, leaves the kernel unguarded *)
        (if gi.digest_unlocked <> None && st.held = [] then
           note_digest_unlocked p ("via " ^ token) loc);
        let st =
          match gi.jeff with
          | J_id -> st
          | J_appended -> { st with j = 1 }
          | J_committed -> { st with j = 2 }
        in
        st))

(* Walk an expression; returns the exit state, or [None] if every path
   diverges. *)
let rec walk p st e =
  let open Parsetree in
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> (
    match walk p st a with None -> None | Some st -> walk p st b)
  | Pexp_let (_, vbs, body) ->
    let st =
      List.fold_left
        (fun st vb ->
          match st with
          | None -> None
          | Some st -> walk p st vb.pvb_expr)
        (Some st) vbs
    in
    (match st with None -> None | Some st -> walk p st body)
  | Pexp_ifthenelse (c, t, f) -> (
    match walk p st c with
    | None -> None
    | Some st ->
      let a = walk p st t in
      let b = match f with Some f -> walk p st f | None -> Some st in
      join a b)
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) -> (
    match walk p st scrut with
    | None -> None
    | Some st ->
      List.fold_left
        (fun acc case ->
          (match case.pc_guard with
          | Some g -> ignore (walk p st g)
          | None -> ());
          join acc (walk p st case.pc_rhs))
        None cases)
  | Pexp_while (c, body) ->
    ignore (walk p st c);
    join (Some st) (walk p st body)
  | Pexp_for (_, lo, hi, _, body) -> (
    match walk p st lo with
    | None -> None
    | Some st -> (
      match walk p st hi with
      | None -> None
      | Some st -> join (Some st) (walk p st body)))
  | Pexp_fun (_, default, _, body) ->
    (match default with Some d -> ignore (walk p st d) | None -> ());
    (* a lambda literal: its body runs zero or more times wherever the
       value is used; effects join at the definition point *)
    join (Some st) (walk p st body)
  | Pexp_function cases ->
    List.iter (fun case -> ignore (walk p st case.pc_rhs)) cases;
    Some st
  | Pexp_construct ({ txt; _ }, arg) ->
    let st =
      match arg with
      | Some a -> walk p st a
      | None -> Some st
    in
    (match st with
    | Some st when in_o_core p && last (Longident.flatten txt) = "Ack" ->
      if st.j < 2 then
        add_raw p "O1" e.pexp_loc
          (Callgraph.token_of_path (Longident.flatten txt))
          (if st.j = 0 then
             "Ack emitted on a path with no journal append or commit: a \
              client that acts on this Ack loses the report to a kill -9 — \
              append and commit to the journal first"
           else
             "Ack emitted after journal append but before commit: the \
              record is not durable until Journal.commit runs");
      Some st
    | st -> st)
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
    ->
    None
  | Pexp_apply (fn, args) -> (
    match Callgraph.access_path fn with
    | Some [ op ] when op = "|>" || op = "@@" -> (
      (* a |> f  /  f @@ a: rewrite to the direct application *)
      match args with
      | [ (_, a); (_, b) ] ->
        let f, x = if op = "|>" then (b, a) else (a, b) in
        walk_pipe p st ~f ~x
      | _ -> walk_default p st e)
    | Some path when List.length path = 1 && List.mem (List.hd path) diverging_calls
      ->
      List.iter (fun (_, a) -> ignore (walk p st a)) args;
      None
    | Some path ->
      let st =
        List.fold_left
          (fun st (_, a) ->
            match st with None -> None | Some st -> walk p st a)
          (Some st) args
      in
      (match st with
      | None -> None
      | Some st -> Some (apply_call p st ~loc:e.pexp_loc ~path ~args))
    | None -> walk_default p st e)
  | _ -> walk_default p st e

and walk_pipe p st ~f ~x =
  match walk p st x with
  | None -> None
  | Some st -> (
    match Callgraph.access_path f with
    | Some path -> Some (apply_call p st ~loc:f.Parsetree.pexp_loc ~path ~args:[])
    | None -> walk p st f)

and walk_default p st e =
  List.fold_left
    (fun st sub -> match st with None -> None | Some st -> walk p st sub)
    (Some st) (sub_expressions e)

(* --- fixpoint ------------------------------------------------------------ *)

(* The binding's own fun chain is the function, not a lambda literal:
   peel it before walking, or the Pexp_fun "runs zero or more times" join
   would erase every function's guaranteed effects. *)
let rec peel_funs e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, _, body) -> peel_funs body
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_newtype (_, e) ->
    peel_funs e
  | _ -> e

let fresh_info fn =
  {
    fn;
    acquires = [];
    order = [];
    blocking = None;
    digest_unlocked = None;
    jeff = J_id;
  }

let analyze_function p info =
  let before =
    (List.sort compare info.acquires, info.blocking <> None,
     info.digest_unlocked <> None, info.jeff, List.length info.order)
  in
  info.acquires <- [];
  info.order <- [];
  info.blocking <- None;
  info.digest_unlocked <- None;
  p.cur <- info;
  let exit = walk p entry_state (peel_funs info.fn.Callgraph.body) in
  info.jeff <-
    (match exit with
    | Some { j = 2; _ } -> J_committed
    | Some { j = 1; _ } -> J_appended
    | _ -> J_id);
  let after =
    (List.sort compare info.acquires, info.blocking <> None,
     info.digest_unlocked <> None, info.jeff, List.length info.order)
  in
  before <> after

let run ~options cg =
  let funcs = Callgraph.functions cg in
  let infos = Hashtbl.create 256 in
  List.iter
    (fun f -> Hashtbl.replace infos f.Callgraph.qname (fresh_info f))
    funcs;
  match funcs with
  | [] -> ([], infos)
  | f0 :: _ ->
  let p =
    { options; cg; infos; emit = []; emitting = false; edges = [];
      cur = fresh_info f0 }
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun f ->
        let info = Hashtbl.find infos f.Callgraph.qname in
        if analyze_function p info then changed := true)
      funcs
  done;
  (* final pass: emit site findings with converged callee summaries *)
  p.emitting <- true;
  p.edges <- [];
  List.iter
    (fun f -> ignore (analyze_function p (Hashtbl.find infos f.Callgraph.qname)))
    funcs;
  (* L4: kernel digest reachable unguarded from an entry point of a
     digest-guard scope. Entry point: reachable from outside the scope,
     or not called from inside it (public surface). *)
  let in_scope qname =
    match Hashtbl.find_opt infos qname with
    | Some i -> in_digest_guard options i.fn
    | None -> false
  in
  let by_qname =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun q i acc -> (q, i) :: acc) infos [])
  in
  List.iter
    (fun (qname, info) ->
      if in_digest_guard options info.fn then
        match info.digest_unlocked with
        | Some (token, loc) ->
          let callers =
            List.filter_map
              (fun (a, b) -> if b = qname then Some a else None)
              p.edges
          in
          let inside = List.filter in_scope callers in
          let outside = List.filter (fun c -> not (in_scope c)) callers in
          if outside <> [] || inside = [] then
            p.emit <-
              {
                r_rule = "L4";
                r_file = info.fn.Callgraph.fn_file;
                r_loc = loc;
                r_token = token;
                r_msg =
                  Printf.sprintf
                    "digest computation (%s) reachable from %s with no \
                     stripe lock held: the compute-inside-the-lock \
                     discipline is what makes store counters deterministic \
                     under any --jobs — hash inside the critical section"
                    token info.fn.Callgraph.qname;
              }
              :: p.emit
        | None -> ())
    by_qname;
  (* L2: lock-order inversion — (a before b) somewhere and (b before a)
     somewhere else. Reported at the lexicographically-first direction's
     witness so the finding is deterministic. *)
  let all_pairs =
    List.sort
      (fun (qa, _, (a1, b1, _)) (qb, _, (a2, b2, _)) ->
        compare (qa, a1, b1) (qb, a2, b2))
      (Hashtbl.fold
         (fun q info acc ->
           List.map (fun o -> (q, info.fn.Callgraph.fn_file, o)) info.order @ acc)
         infos [])
  in
  List.iter
    (fun (_, file, (a, b, loc)) ->
      if a < b
         && List.exists (fun (_, _, (x, y, _)) -> x = b && y = a) all_pairs
      then
        p.emit <-
          {
            r_rule = "L2";
            r_file = file;
            r_loc = loc;
            r_token = Printf.sprintf "%s<%s" a b;
            r_msg =
              Printf.sprintf
                "lock-order inversion: %s is acquired while holding %s here, \
                 and the opposite order exists elsewhere in the program — \
                 two domains taking the two paths deadlock"
                b a;
          }
          :: p.emit)
    all_pairs;
  (p.emit, infos)

(* --- debug dump ----------------------------------------------------------- *)

let dump_info (info : info) =
  let locks =
    match info.acquires with
    | [] -> "-"
    | l -> String.concat "," (List.sort compare l)
  in
  Printf.sprintf "%-44s locks=%s%s%s journal=%s" info.fn.Callgraph.qname locks
    (match info.blocking with Some w -> " blocking=" ^ w | None -> "")
    (match info.digest_unlocked with
    | Some (w, _) -> " digest-unlocked=" ^ w
    | None -> "")
    (match info.jeff with
    | J_id -> "id"
    | J_appended -> "appended"
    | J_committed -> "committed")
