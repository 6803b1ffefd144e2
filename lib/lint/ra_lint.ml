(* Project-specific static analysis over the repo's own sources, in the
   spirit of VRASED's "establish RA guarantees statically": the invariants
   the simulator otherwise only observes dynamically — bit-identical
   results under any --jobs, deterministic event ordering, audited
   unsafe_* hot loops — are checked here against the Parsetree before a
   single event fires. Parsing uses compiler-libs.common (ships with the
   compiler), so the linter adds no external dependency.

   Rule families (see DESIGN.md §10):
     D determinism     D1 global-PRNG Random, D2 wall-clock time,
                       D3 Hashtbl iteration order escaping unsorted,
                       D4 self-seeding (Random.self_init and friends)
     P parallel-safety P1 Domain/Mutex/Atomic outside lib/parallel + lib/cache,
                       P2 module-level mutable state reachable from tasks
     U unsafe audit    U1 unsafe_* site without a (* bounds: ... *) comment,
                       U2 unsafe-using module without a (* cross-check: ... *)
     I interface       I1 lib/**.ml without a matching .mli,
                       I2 exported val no other file of the tree references
   Findings are syntactic and conservative; a human can waive a site with
   an in-source (* ralint: allow <RULE> — reason *) comment, or accept it
   into the committed ratchet baseline (LINT_BASELINE.json). *)

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  fingerprint : string;
  message : string;
}

type config = {
  time_allowlist : string list;
      (* path prefixes (or exact files) where wall-clock reads are the point *)
  parallel_allowlist : string list;
      (* path prefixes allowed to touch Domain/Mutex/Atomic and to hold
         lock-guarded module state *)
  interface_allowlist : string list;
      (* .ml files excused from rule I even though they are not
         module-type-only *)
  unix_allowlist : string list;
      (* path prefixes allowed to make Unix syscalls: the socket shell and
         the journal's file backend; everything else must stay simulated *)
  p2_paths : string list option;
      (* None: rule P2 applies everywhere outside [parallel_allowlist];
         Some prefixes: only under these (the Ra_parallel-reachable set) *)
  comment_reach : int;
      (* how many lines above a binding an attaching comment may end *)
  o_core_paths : string list;
      (* files whose Ack constructions rule O1 holds to journal-then-commit *)
  digest_guard : (string * string) list;
      (* (file prefix, submodule): kernel digests must run under a held
         lock there (rule L4) *)
  c_paths : string list;
      (* path prefixes where secret-flow findings (C1/C2) are reported *)
  secret_tag_paths : string list;
      (* where the name "tag" seeds taint (a MAC tag, not a record tag) *)
}

let default_config =
  {
    time_allowlist =
      [
        "lib/experiments/benchkit.ml";
        "lib/experiments/fleet_roll.ml";
        "lib/server/tcp.ml";
        "bench/";
      ];
    parallel_allowlist = [ "lib/parallel/"; "lib/cache/" ];
    interface_allowlist = [ "lib/crypto/digest_intf.ml" ];
    unix_allowlist =
      [ "lib/server/tcp.ml"; "lib/journal/disk.ml"; "test/test_server.ml" ];
    p2_paths = None;
    comment_reach = 3;
    o_core_paths = [ "lib/server/core.ml" ];
    digest_guard = [ ("lib/cache/", "Store") ];
    c_paths = [ "lib/core/"; "lib/crypto/"; "lib/pk/"; "lib/server/" ];
    secret_tag_paths = [ "lib/crypto/"; "lib/pk/" ];
  }

let path_matches prefixes file =
  List.exists
    (fun p -> String.length p <= String.length file && String.sub file 0 (String.length p) = p)
    prefixes

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- source parsing ----------------------------------------------------- *)

exception Lint_parse_error of string * int (* message, line *)

(* Not reentrant, like Callgraph.parse: lint one file at a time. *)
let parse_with_comments ~file source =
  try Callgraph.parse ~file source
  with Callgraph.Parse_error (msg, line) -> raise (Lint_parse_error (msg, line))

let read_text path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let source_files ~root ~suffix paths =
  let skip name = name = "_build" || name = ".git" || name = "_opam" in
  let out = ref [] in
  let rec walk rel =
    let full = Filename.concat root rel in
    if Sys.is_directory full then
      Array.iter
        (fun name ->
          if not (skip name) then
            walk (if rel = "" then name else Filename.concat rel name))
        (Sys.readdir full)
    else if Filename.check_suffix rel suffix then out := rel :: !out
  in
  (* repo-relative names as the allowlists and rule I2 spell them:
     "." is the root, and "./lib" or "lib/" name lib *)
  let relative p =
    if p = "." || p = "./" then ""
    else if String.starts_with ~prefix:"./" p then String.sub p 2 (String.length p - 2)
    else p
  in
  List.iter
    (fun p ->
      let p = relative p in
      if Sys.file_exists (Filename.concat root p) then walk p)
    paths;
  List.sort compare !out

(* --- rule engine --------------------------------------------------------- *)

type raw = { r_rule : string; r_loc : Location.t; r_token : string; r_msg : string }

type ctx = {
  cfg : config;
  file : string;
  mutable raws : raw list;
  mutable binding : Location.t option; (* innermost structure-level binding *)
  mutable sort_depth : int;
  mutable unsafe_sites : (Location.t * Location.t option * string) list;
}

let sort_functions =
  [
    [ "List"; "sort" ];
    [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
    [ "List"; "sort_uniq" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ];
  ]

let parallel_modules = [ "Domain"; "Mutex"; "Atomic"; "Condition"; "Semaphore"; "Thread" ]

let raise_raw ctx rule loc token msg =
  ctx.raws <- { r_rule = rule; r_loc = loc; r_token = token; r_msg = msg } :: ctx.raws

let ident_path e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let check_ident ctx path loc =
  let token = String.concat "." path in
  match path with
  (* D4 before D1: Random.self_init is also a Random.* use, but the
     self-seeding diagnosis is the actionable one (and it catches
     Random.State.make_self_init, which D1's two-component match misses) *)
  | _ when (match List.rev path with
           | ("self_init" | "make_self_init") :: _ -> true
           | _ -> false) ->
    raise_raw ctx "D4" loc token
      (Printf.sprintf
         "self-seeded PRNG %s: an ambient (time/device-entropy) seed makes \
          the run unreproducible and the journal unreplayable; every stream \
          must derive from an explicit recorded seed"
         token)
  | [ "Random"; _ ] ->
    raise_raw ctx "D1" loc token
      (Printf.sprintf
         "global-PRNG %s: ambient seed breaks run reproducibility; use \
          Ra_sim.Prng (or Random.State with an explicit seed)"
         token)
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
    if not (path_matches ctx.cfg.time_allowlist ctx.file) then
      raise_raw ctx "D2" loc token
        (Printf.sprintf
           "wall-clock read %s outside the benchmark allowlist: simulated \
            components must take time from Engine.now"
           token)
  (* after D2: time reads already have their own diagnosis; every other
     Unix value is a live syscall and belongs in the socket shell *)
  | "Unix" :: _ :: _ ->
    if not (path_matches ctx.cfg.unix_allowlist ctx.file) then
      raise_raw ctx "P3" loc token
        (Printf.sprintf
           "syscall %s outside lib/server/tcp.ml and the journal's file \
            backend: sockets, processes and file descriptors break the \
            deterministic-simulation contract — route I/O through the \
            Tcp shell or the Disk abstraction"
           token)
  | [ "Hashtbl"; "iter" ] ->
    raise_raw ctx "D3" loc token
      "Hashtbl.iter visits bindings in hash-bucket order; the iteration \
       order leaks into effects — iterate a sorted snapshot instead"
  | [ "Hashtbl"; "fold" ] ->
    if ctx.sort_depth = 0 then
      raise_raw ctx "D3" loc token
        "Hashtbl.fold result escapes without an explicit sort at the fold \
         site; bucket order would leak into digests/output"
  | _ when List.exists (fun c -> starts_with ~prefix:"unsafe_" c) path ->
    ctx.unsafe_sites <- (loc, ctx.binding, token) :: ctx.unsafe_sites
  | root :: _ :: _ when List.mem root parallel_modules ->
    if not (path_matches ctx.cfg.parallel_allowlist ctx.file) then
      raise_raw ctx "P1" loc token
        (Printf.sprintf
           "parallel primitive %s outside lib/parallel + lib/cache: task \
            closures must stay free of ad-hoc synchronisation so results \
            are bit-identical for any --jobs"
           token)
  | _ -> ()

(* Does [e] construct mutable state when evaluated at module init?
   Function bodies are skipped: state created per call is not shared.
   A lazy value counts: forcing it writes the cell, and two domains
   forcing one cell raise [CamlinternalLazy.Undefined].
   Returns a description of the first mutable constructor found. *)
let rec mutable_init e =
  let open Parsetree in
  match e.pexp_desc with
  | Pexp_array _ -> Some "array literal"
  | Pexp_lazy _ -> Some "lazy"
  | Pexp_apply (fn, args) -> (
    let from_args () =
      List.fold_left
        (fun acc (_, a) -> match acc with Some _ -> acc | None -> mutable_init a)
        None args
    in
    match ident_path fn with
    | Some [ "ref" ] -> Some "ref"
    | Some ([ ("Hashtbl" | "Queue" | "Stack" | "Buffer" | "Weak"); "create" ] as p)
    | Some ([ "Array"; ("make" | "create_float" | "init" | "make_matrix") ] as p)
    | Some ([ "Bytes"; ("make" | "create" | "init" | "of_string") ] as p)
    | Some ([ "Lazy"; "from_fun" ] as p) ->
      Some (String.concat "." p)
    | _ -> from_args ())
  | Pexp_tuple es -> List.fold_left
      (fun acc x -> match acc with Some _ -> acc | None -> mutable_init x) None es
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) -> mutable_init arg
  | Pexp_record (fields, base) ->
    let acc =
      List.fold_left
        (fun acc (_, x) -> match acc with Some _ -> acc | None -> mutable_init x)
        None fields
    in
    (match (acc, base) with Some _, _ -> acc | None, Some b -> mutable_init b | None, None -> None)
  | Pexp_let (_, vbs, body) ->
    let acc =
      List.fold_left
        (fun acc vb ->
          match acc with Some _ -> acc | None -> mutable_init vb.pvb_expr)
        None vbs
    in
    (match acc with Some _ -> acc | None -> mutable_init body)
  | Pexp_sequence (a, b) -> (
    match mutable_init a with Some d -> Some d | None -> mutable_init b)
  | Pexp_ifthenelse (_, t, f) -> (
    match mutable_init t with
    | Some d -> Some d
    | None -> ( match f with Some f -> mutable_init f | None -> None))
  | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_open (_, x) -> mutable_init x
  | _ -> None

let binding_name vb =
  match vb.Parsetree.pvb_pat.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> txt
  | _ -> "_"

let make_iterator ctx =
  let open Ast_iterator in
  let p2_active =
    (not (path_matches ctx.cfg.parallel_allowlist ctx.file))
    &&
    match ctx.cfg.p2_paths with
    | None -> true
    | Some prefixes -> path_matches prefixes ctx.file
  in
  let expr it e =
    (match ident_path e with
    | Some path -> check_ident ctx path e.Parsetree.pexp_loc
    | None -> ());
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (fn, args)
      when (match ident_path fn with
           | Some p -> List.mem p sort_functions
           | None -> false) ->
      it.expr it fn;
      ctx.sort_depth <- ctx.sort_depth + 1;
      List.iter (fun (_, a) -> it.expr it a) args;
      ctx.sort_depth <- ctx.sort_depth - 1
    | _ -> default_iterator.expr it e
  in
  let structure_item it item =
    match item.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          (if p2_active then
             match mutable_init vb.Parsetree.pvb_expr with
             | Some desc ->
               raise_raw ctx "P2" vb.pvb_loc (binding_name vb)
                 (Printf.sprintf
                    "module-level mutable state `%s' (%s) is shared across \
                     domains once this module runs inside Ra_parallel tasks"
                    (binding_name vb) desc)
             | None -> ());
          let saved = ctx.binding in
          ctx.binding <- Some vb.Parsetree.pvb_loc;
          default_iterator.value_binding it vb;
          ctx.binding <- saved)
        vbs
    | _ -> default_iterator.structure_item it item
  in
  { default_iterator with expr; structure_item }

(* --- comments: bounds/cross-check attachment, suppressions -------------- *)

let comment_contains (text, _) needle =
  let tl = String.length text and nl = String.length needle in
  let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
  nl > 0 && scan 0

let loc_lines (loc : Location.t) = (loc.loc_start.pos_lnum, loc.loc_end.pos_lnum)

(* A comment attaches to a range when it sits inside it, or ends within
   [reach] lines above its first line. *)
let attaches ~reach (cloc : Location.t) (start_line, end_line) =
  let cs, ce = loc_lines cloc in
  (cs >= start_line && ce <= end_line)
  || (ce < start_line && start_line - ce <= reach)

let has_attached_comment ~reach comments range needle =
  List.exists
    (fun ((_, cloc) as c) -> comment_contains c needle && attaches ~reach cloc range)
    comments

(* (* ralint: allow D3 P1 — reason *) — rule ids or whole families. *)
let suppression_rules (text, _) =
  let marker = "ralint: allow" in
  let tl = String.length text and ml = String.length marker in
  let rec find i =
    if i + ml > tl then None
    else if String.sub text i ml = marker then Some (i + ml)
    else find (i + 1)
  in
  match find 0 with
  | None -> []
  | Some start ->
    let is_sep c = c = ' ' || c = ',' || c = '\t' || c = '\n' in
    let rec words i acc cur =
      if i >= tl then List.rev (if cur = "" then acc else cur :: acc)
      else if is_sep text.[i] then
        words (i + 1) (if cur = "" then acc else cur :: acc) ""
      else words (i + 1) acc (cur ^ String.make 1 text.[i])
    in
    let rule_like w =
      (String.length w = 1 || String.length w = 2)
      && (match w.[0] with 'A' .. 'Z' -> true | _ -> false)
      && (String.length w = 1 || match w.[1] with '0' .. '9' -> true | _ -> false)
    in
    (* take leading rule-shaped words; the free-form reason follows *)
    let rec take = function
      | w :: rest when rule_like w -> w :: take rest
      | _ -> []
    in
    take (words start [] "")

let suppressed ~reach ~comments ~item_ranges finding =
  List.exists
    (fun ((_, cloc) as c) ->
      match suppression_rules c with
      | [] -> false
      | rules ->
        let attached =
          List.filter (fun range -> attaches ~reach cloc range) item_ranges
        in
        let covers =
          match attached with
          | [] ->
            let cs, ce = loc_lines cloc in
            finding.line >= cs && finding.line <= ce + 1
          | ranges ->
            List.exists (fun (s, e) -> finding.line >= s && finding.line <= e) ranges
        in
        covers
        && List.exists
             (fun r -> r = finding.rule || r = String.make 1 finding.rule.[0])
             rules)
    comments

(* --- fingerprints -------------------------------------------------------- *)

(* Stable across pure line moves: rule + file + flagged token + the
   occurrence index of that (rule, token) pair within the file. *)
let assign_fingerprints file findings =
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.map
    (fun (rule, loc, token, msg) ->
      let key = rule ^ ":" ^ token in
      let n = Option.value ~default:0 (Hashtbl.find_opt counts key) in
      Hashtbl.replace counts key (n + 1);
      let line, col =
        ( loc.Location.loc_start.pos_lnum,
          loc.Location.loc_start.pos_cnum - loc.Location.loc_start.pos_bol )
      in
      {
        rule;
        file;
        line;
        col;
        fingerprint = Printf.sprintf "%s:%s:%s#%d" rule file token n;
        message = msg;
      })
    findings

(* --- per-file entry point ------------------------------------------------ *)

let lint_source ?(config = default_config) ~file source =
  let str, comments = parse_with_comments ~file source in
  let ctx =
    { cfg = config; file; raws = []; binding = None; sort_depth = 0; unsafe_sites = [] }
  in
  let it = make_iterator ctx in
  it.Ast_iterator.structure it str;
  let reach = config.comment_reach in
  (* U1: every unsafe site's innermost structure-level binding must carry a
     bounds: comment. *)
  List.iter
    (fun (loc, binding, token) ->
      let justified =
        match binding with
        | None -> false
        | Some bloc ->
          has_attached_comment ~reach comments (loc_lines bloc) "bounds:"
      in
      if not justified then
        raise_raw ctx "U1" loc token
          (Printf.sprintf
             "unsafe access %s in a function without a (* bounds: ... *) \
              justification comment"
             token))
    ctx.unsafe_sites;
  (* U2: an unsafe-using module must name its reference cross-check. *)
  (match
     List.sort
       (fun (a, _, _) (b, _, _) ->
         compare a.Location.loc_start.pos_lnum b.Location.loc_start.pos_lnum)
       ctx.unsafe_sites
   with
  | (first_loc, _, _) :: _
    when not (List.exists (fun c -> comment_contains c "cross-check:") comments) ->
    raise_raw ctx "U2" first_loc (Filename.basename file)
      "module uses unsafe accesses but no (* cross-check: ... *) comment \
       names its Checked/qcheck reference implementation"
  | _ -> ());
  let item_ranges =
    List.map (fun item -> loc_lines item.Parsetree.pstr_loc) str
  in
  let ordered =
    List.sort
      (fun a b ->
        compare
          (a.r_loc.Location.loc_start.pos_lnum, a.r_loc.Location.loc_start.pos_cnum, a.r_rule)
          (b.r_loc.Location.loc_start.pos_lnum, b.r_loc.Location.loc_start.pos_cnum, b.r_rule))
      ctx.raws
  in
  assign_fingerprints file
    (List.map (fun r -> (r.r_rule, r.r_loc, r.r_token, r.r_msg)) ordered)
  |> List.filter (fun f -> not (suppressed ~reach ~comments ~item_ranges f))

(* --- rule I: interface hygiene ------------------------------------------- *)

(* A file whose structure holds only module types (plus attributes and
   docstrings) is its own interface; everything else under lib/ needs a
   matching .mli unless explicitly allowlisted. *)
let interface_only str =
  str <> []
  && List.for_all
       (fun item ->
         match item.Parsetree.pstr_desc with
         | Parsetree.Pstr_modtype _ | Parsetree.Pstr_attribute _ -> true
         | _ -> false)
       str

let check_interface ?(config = default_config) ~file ~mli_exists source =
  if path_matches config.interface_allowlist file || mli_exists then []
  else
    let str, _ = parse_with_comments ~file source in
    if interface_only str then []
    else
      [
        {
          rule = "I1";
          file;
          line = 1;
          col = 0;
          fingerprint = Printf.sprintf "I1:%s" file;
          message =
            Printf.sprintf
              "missing interface %s (module-type-only files are exempt; \
               allowlist deliberate omissions in the lint config)"
              (Filename.remove_extension (Filename.basename file) ^ ".mli");
        };
      ]

(* I2: an exported val of lib/**.mli that no other file of the tree
   references. The reference set is every implementation under
   [reference_roots], whatever paths are linted: e2ebench is read as a
   caller but never linted. Waivers sit on or just above the val. *)
let reference_roots = [ "lib"; "bin"; "bench"; "examples"; "test"; "e2ebench" ]

let unused_exports ?(config = default_config) ~root paths =
  let read file = read_text (Filename.concat root file) in
  let referenced =
    Exports.referenced
      (List.filter_map
         (fun file ->
           match Callgraph.unit_of_source ~file (read file) with
           | u -> Some u
           | exception Callgraph.Parse_error _ -> None)
         (source_files ~root ~suffix:".ml" reference_roots))
  in
  List.concat_map
    (fun file ->
      match Callgraph.parse_interface ~file (read file) with
      | exception Callgraph.Parse_error _ -> []
      | sg, comments ->
        let exports = Exports.exports sg in
        let item_ranges = List.map (fun e -> loc_lines e.Exports.loc) exports in
        List.filter (fun e -> not (referenced ~interface:file e)) exports
        |> List.map (fun (e : Exports.export) ->
               let token = String.concat "." e.path in
               ( "I2",
                 e.loc,
                 token,
                 Printf.sprintf
                   "%s.%s is exported but no other file of lib, bin, bench, \
                    examples, test or e2ebench references it: drop it from \
                    the interface"
                   (Callgraph.modname_of_file file) token ))
        |> assign_fingerprints file
        |> List.filter (fun f ->
               not (suppressed ~reach:config.comment_reach ~comments ~item_ranges f)))
    (List.filter (starts_with ~prefix:"lib/") (source_files ~root ~suffix:".mli" paths))

(* --- baseline ratchet ---------------------------------------------------- *)

type baseline_entry = { b_rule : string; b_file : string; b_fingerprint : string }

let baseline_schema = "ralint-baseline/1"

let baseline_to_json entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"schema\": \"%s\",\n  \"findings\": [" baseline_schema);
  List.iteri
    (fun i e ->
      Buffer.add_string buf (if i = 0 then "\n" else ",\n");
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"rule\": \"%s\", \"file\": \"%s\", \"fingerprint\": \"%s\"}"
           (Ra_experiments.Benchkit.escape_string e.b_rule)
           (Ra_experiments.Benchkit.escape_string e.b_file)
           (Ra_experiments.Benchkit.escape_string e.b_fingerprint)))
    entries;
  Buffer.add_string buf (if entries = [] then "]\n}\n" else "\n  ]\n}\n");
  Buffer.contents buf

let baseline_of_json text =
  let module B = Ra_experiments.Benchkit in
  let fail msg = raise (B.Parse_error msg) in
  let str = function B.J_string s -> s | _ -> fail "expected string" in
  match B.parse_json text with
  | B.J_object fields ->
    (match List.assoc_opt "schema" fields with
    | Some (B.J_string s) when s = baseline_schema -> ()
    | Some (B.J_string s) -> fail ("unknown baseline schema " ^ s)
    | _ -> fail "baseline missing schema");
    (match List.assoc_opt "findings" fields with
    | Some (B.J_array items) ->
      List.map
        (function
          | B.J_object f ->
            let get k =
              match List.assoc_opt k f with
              | Some v -> str v
              | None -> fail ("baseline entry missing " ^ k)
            in
            { b_rule = get "rule"; b_file = get "file"; b_fingerprint = get "fingerprint" }
          | _ -> fail "baseline entry must be an object")
        items
    | _ -> fail "baseline missing findings array")
  | _ -> fail "baseline top level must be an object"

let entry_of_finding f = { b_rule = f.rule; b_file = f.file; b_fingerprint = f.fingerprint }

type verdict = New | Baselined

type report = {
  findings : (finding * verdict) list; (* file/line order *)
  stale : baseline_entry list; (* accepted sites that no longer fire *)
}

let diff ~baseline findings =
  let fires fp = List.exists (fun f -> f.fingerprint = fp) findings in
  {
    findings =
      List.map
        (fun f ->
          let accepted =
            List.exists (fun b -> b.b_fingerprint = f.fingerprint) baseline
          in
          (f, if accepted then Baselined else New))
        findings;
    stale = List.filter (fun b -> not (fires b.b_fingerprint)) baseline;
  }

let new_findings report =
  List.filter_map (fun (f, v) -> if v = New then Some f else None) report.findings

(* --- rendering ----------------------------------------------------------- *)

let render_human report =
  let buf = Buffer.create 512 in
  List.iter
    (fun ((f : finding), v) ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: [%s]%s %s\n" f.file f.line f.col f.rule
           (match v with New -> "" | Baselined -> " (baselined)")
           f.message))
    report.findings;
  (* bench/compare.exe-style drift section: entries the ratchet still
     carries but that no longer fire — tighten the baseline. *)
  if report.stale <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "baseline drift: %d accepted finding(s) no longer fire:\n"
         (List.length report.stale));
    List.iter
      (fun b ->
        Buffer.add_string buf
          (Printf.sprintf "  %-32s baseline %-4s  current FIXED\n" b.b_file b.b_rule))
      report.stale;
    Buffer.add_string buf "re-ratchet with: ralint --update-baseline\n"
  end;
  let news = List.length (new_findings report) in
  let total = List.length report.findings in
  Buffer.add_string buf
    (if total = 0 && report.stale = [] then "ralint: clean (0 findings)\n"
     else
       Printf.sprintf "ralint: %d finding(s): %d new, %d baselined, %d stale baseline entr%s\n"
         total news (total - news)
         (List.length report.stale)
         (if List.length report.stale = 1 then "y" else "ies"));
  Buffer.contents buf

let render_json report =
  let esc = Ra_experiments.Benchkit.escape_string in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"schema\": \"ralint/1\",\n  \"findings\": [";
  List.iteri
    (fun i ((f : finding), v) ->
      Buffer.add_string buf (if i = 0 then "\n" else ",\n");
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": %d, \
            \"fingerprint\": \"%s\", \"status\": \"%s\", \"message\": \"%s\"}"
           (esc f.rule) (esc f.file) f.line f.col (esc f.fingerprint)
           (match v with New -> "new" | Baselined -> "baselined")
           (esc f.message)))
    report.findings;
  Buffer.add_string buf (if report.findings = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf "  \"stale\": [";
  List.iteri
    (fun i b ->
      Buffer.add_string buf (if i = 0 then "\n" else ",\n");
      Buffer.add_string buf
        (Printf.sprintf "    {\"rule\": \"%s\", \"file\": \"%s\", \"fingerprint\": \"%s\"}"
           (esc b.b_rule) (esc b.b_file) (esc b.b_fingerprint)))
    report.stale;
  Buffer.add_string buf (if report.stale = [] then "],\n" else "\n  ],\n");
  (* per-family counts, uploaded as Benchkit metrics by CI *)
  let families = [ "D"; "P"; "U"; "I"; "L"; "O"; "C"; "E" ] in
  let count fam =
    List.length
      (List.filter
         (fun ((f : finding), _) -> String.make 1 f.rule.[0] = fam)
         report.findings)
  in
  Buffer.add_string buf "  \"families\": {";
  List.iteri
    (fun i fam ->
      Buffer.add_string buf
        (Printf.sprintf "%s\"%s\": %d" (if i = 0 then "" else ", ") fam (count fam)))
    families;
  Buffer.add_string buf "},\n";
  let news = List.length (new_findings report) in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"total\": %d, \"new\": %d, \"baselined\": %d, \"stale\": %d}\n}\n"
       (List.length report.findings)
       news
       (List.length report.findings - news)
       (List.length report.stale));
  Buffer.contents buf

(* --- Ra_parallel reachability (rule P2 scope) ---------------------------- *)

module Reach = struct
  (* Library-level over-approximation of "code a Ra_parallel task closure
     can run": libraries whose sources mention Ra_parallel submit tasks,
     and their closures can call anything in those libraries' transitive
     dune dependencies. Parsed from lib/*/dune with a token scanner —
     enough for this repo's flat (library (name ...) (libraries ...))
     stanzas. *)

  let tokenize text =
    let buf = Buffer.create 64 and out = ref [] in
    let flush () =
      if Buffer.length buf > 0 then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      end
    in
    String.iter
      (fun c ->
        match c with
        | '(' | ')' ->
          flush ();
          out := String.make 1 c :: !out
        | ' ' | '\t' | '\n' | '\r' -> flush ()
        | c -> Buffer.add_char buf c)
      text;
    flush ();
    List.rev !out

  (* (name, dir, deps) per library stanza found under [root]/lib/<d>/dune *)
  let libraries ~root =
    let lib_root = Filename.concat root "lib" in
    let dirs =
      if Sys.file_exists lib_root && Sys.is_directory lib_root then
        List.filter
          (fun d -> Sys.is_directory (Filename.concat lib_root d))
          (List.sort compare (Array.to_list (Sys.readdir lib_root)))
      else []
    in
    List.filter_map
      (fun d ->
        let dune = Filename.concat (Filename.concat lib_root d) "dune" in
        if not (Sys.file_exists dune) then None
        else
          let toks = tokenize (read_text dune) in
          let rec name = function
            | "name" :: n :: _ -> Some n
            | _ :: rest -> name rest
            | [] -> None
          in
          let rec deps = function
            | "libraries" :: rest ->
              let rec take acc = function
                | ")" :: _ | [] -> List.rev acc
                | t :: rest -> take (t :: acc) rest
              in
              take [] rest
            | _ :: rest -> deps rest
            | [] -> []
          in
          match name toks with
          | Some n -> Some (n, "lib/" ^ d ^ "/", deps toks)
          | None -> None)
      dirs

  let mentions_parallel ~root dir =
    let full = Filename.concat root dir in
    Sys.file_exists full
    && Array.exists
         (fun f ->
           Filename.check_suffix f ".ml"
           &&
           let text = read_text (Filename.concat full f) in
           let needle = "Ra_parallel" in
           let tl = String.length text and nl = String.length needle in
           let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
           scan 0)
         (Sys.readdir full)

  let parallel_reachable ~root =
    let libs = libraries ~root in
    let submitters =
      List.filter (fun (n, dir, _) -> n <> "ra_parallel" && mentions_parallel ~root dir) libs
    in
    let rec closure seen = function
      | [] -> seen
      | n :: rest ->
        if List.mem n seen then closure seen rest
        else
          let deps =
            match List.find_opt (fun (n', _, _) -> n' = n) libs with
            | Some (_, _, ds) -> List.filter (fun d -> List.exists (fun (n', _, _) -> n' = d) libs) ds
            | None -> []
          in
          closure (n :: seen) (deps @ rest)
    in
    let reachable = closure [] (List.map (fun (n, _, _) -> n) submitters) in
    List.sort compare
      (List.filter_map
         (fun (n, dir, _) -> if List.mem n reachable then Some dir else None)
         libs)
end

(* --- interprocedural analysis (families L, O, C) ------------------------- *)

module Program = struct
  type t = { cg : Callgraph.t; units : Callgraph.unit_info list }

  (* Unparseable sources are skipped here: the per-file pass already
     reports them (E1 in the driver), and one broken file should not
     take the whole-program analysis down with it. *)
  let load sources =
    let units =
      List.filter_map
        (fun (file, text) ->
          match Callgraph.unit_of_source ~file text with
          | u -> Some u
          | exception Callgraph.Parse_error _ -> None)
        sources
    in
    { cg = Callgraph.build units; units }

  let options_of_config config =
    ( { Summary.o_core = config.o_core_paths; digest_guard = config.digest_guard },
      { Taint.c_paths = config.c_paths; secret_tag_paths = config.secret_tag_paths }
    )

  let analyze ?(config = default_config) t =
    let sopt, topt = options_of_config config in
    let sraws, _ = Summary.run ~options:sopt t.cg in
    let traws, _ = Taint.run ~options:topt t.cg in
    let by_file : (string, Summary.raw list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (r : Summary.raw) ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_file r.r_file) in
        Hashtbl.replace by_file r.r_file (r :: cur))
      (sraws @ traws);
    let files =
      List.sort_uniq compare
        (List.map (fun (r : Summary.raw) -> r.r_file) (sraws @ traws))
    in
    List.concat_map
      (fun file ->
        let ordered =
          List.sort
            (fun (a : Summary.raw) (b : Summary.raw) ->
              compare
                ( a.r_loc.Location.loc_start.pos_lnum,
                  a.r_loc.Location.loc_start.pos_cnum,
                  a.r_rule )
                ( b.r_loc.Location.loc_start.pos_lnum,
                  b.r_loc.Location.loc_start.pos_cnum,
                  b.r_rule ))
            (Hashtbl.find by_file file)
        in
        let comments =
          match
            List.find_opt (fun u -> u.Callgraph.u_file = file) t.units
          with
          | Some u -> u.Callgraph.u_comments
          | None -> []
        in
        assign_fingerprints file
          (List.map
             (fun (r : Summary.raw) -> (r.r_rule, r.r_loc, r.r_token, r.r_msg))
             ordered)
        (* interprocedural waivers are near-site only (item_ranges = []):
           the allow comment must sit on, or directly above, the flagged
           line — a function-level waiver would silence the whole protocol
           check, not one reviewed site *)
        |> List.filter
             (fun f ->
               not
                 (suppressed ~reach:config.comment_reach ~comments
                    ~item_ranges:[] f)))
      files

  let summaries ?(config = default_config) t =
    let sopt, topt = options_of_config config in
    let _, sinfos = Summary.run ~options:sopt t.cg in
    let _, tinfos = Taint.run ~options:topt t.cg in
    let buf = Buffer.create 4096 in
    List.iter
      (fun (f : Callgraph.func) ->
        (match Hashtbl.find_opt sinfos f.Callgraph.qname with
        | Some i ->
          Buffer.add_string buf (Summary.dump_info i);
          Buffer.add_char buf '\n'
        | None -> ());
        match Hashtbl.find_opt tinfos f.Callgraph.qname with
        | Some i
          when i.Taint.ret_always
               || not (Taint.IntSet.is_empty i.Taint.ret_deps)
               || not (Taint.IntSet.is_empty i.Taint.cmp_deps) ->
          Buffer.add_string buf ("  " ^ Taint.dump_tinfo i);
          Buffer.add_char buf '\n'
        | _ -> ())
      (Callgraph.functions t.cg);
    Buffer.contents buf
end
