(* Tests for the ralint rule engine (lib/lint): one positive (detected)
   and one negative (clean) fixture per rule family, suppression-comment
   and fingerprint behaviour, interface hygiene, and a qcheck property
   that the LINT_BASELINE.json round trip (emit -> parse -> compare) is
   the identity. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Inline fixtures live under a path outside every allowlist unless a test
   says otherwise. *)
let lint ?config ?(file = "lib/core/fixture.ml") source =
  Ra_lint.lint_source ?config ~file source

let rules findings = List.map (fun f -> f.Ra_lint.rule) findings

let rules_testable = Alcotest.(list string)

(* --- family D: determinism ---------------------------------------------- *)

let d_positive () =
  check rules_testable "global Random fires D1" [ "D1" ]
    (rules (lint "let roll () = Random.int 6\n"));
  check rules_testable "self_init fires D4" [ "D4" ]
    (rules (lint "let () = Random.self_init ()\n"));
  check rules_testable "Random.State.make_self_init fires D4" [ "D4" ]
    (rules (lint "let st = Random.State.make_self_init ()\n"));
  check rules_testable "self_init through an alias fires D4" [ "D4" ]
    (rules (lint "let st = R.State.make_self_init ()\n"));
  check rules_testable "gettimeofday fires D2" [ "D2" ]
    (rules (lint "let now () = Unix.gettimeofday ()\n"));
  check rules_testable "Sys.time fires D2" [ "D2" ]
    (rules (lint "let cpu () = Sys.time ()\n"));
  check rules_testable "Hashtbl.iter fires D3" [ "D3" ]
    (rules (lint "let dump t = Hashtbl.iter (fun k _ -> print_string k) t\n"));
  check rules_testable "unsorted Hashtbl.fold escape fires D3" [ "D3" ]
    (rules (lint "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n"))

let d_negative () =
  check rules_testable "Random.State is deterministic-by-seed" []
    (rules (lint "let roll st = Random.State.int st 6\n"));
  check rules_testable "explicitly seeded Random.State.make is clean" []
    (rules (lint "let st seed = Random.State.make [| seed |]\n"));
  check rules_testable "wall clock is allowed in benchkit" []
    (rules
       (lint ~file:"lib/experiments/benchkit.ml" "let t0 = Unix.gettimeofday ()\n"));
  check rules_testable "wall clock is allowed under bench/" []
    (rules (lint ~file:"bench/main.ml" "let t0 = Unix.gettimeofday ()\n"));
  check rules_testable "fold sorted at the site is clean" []
    (rules
       (lint
          "let keys t =\n\
          \  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n"))

(* --- family P: parallel-safety ------------------------------------------ *)

let p_positive () =
  check rules_testable "Mutex outside the allowlist fires P1" [ "P1" ]
    (rules (lint "let m = Mutex.create ()\n" |> List.filter (fun f -> f.Ra_lint.rule = "P1")));
  check rules_testable "Domain.spawn outside the allowlist fires P1" [ "P1" ]
    (rules (lint "let d f = Domain.spawn f\n"));
  check rules_testable "toplevel Hashtbl fires P2" [ "P2" ]
    (rules (lint "let memo = Hashtbl.create 16\n"));
  check rules_testable "toplevel ref behind a tuple fires P2" [ "P2" ]
    (rules (lint "let state = (ref 0, 1)\n"));
  check rules_testable "toplevel array literal fires P2" [ "P2" ]
    (rules (lint "let tbl = [| 1; 2; 3 |]\n"));
  check rules_testable "toplevel lazy table fires P2" [ "P2" ]
    (rules
       (lint "let table =\n  lazy\n    (Array.init 256 (fun n ->\n         let c = ref n in\n         !c))\n"));
  check rules_testable "toplevel Lazy.from_fun fires P2" [ "P2" ]
    (rules (lint "let table = Lazy.from_fun (fun () -> Array.make 256 0)\n"));
  check rules_testable "Unix socket call outside the shell fires P3" [ "P3" ]
    (rules (lint "let s () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0\n"));
  check rules_testable "Unix.fork outside the shell fires P3" [ "P3" ]
    (rules (lint "let f () = Unix.fork ()\n"));
  check rules_testable "nested Unix path fires P3" [ "P3" ]
    (rules (lint ~file:"lib/experiments/fixture.ml" "let b () = Unix.LargeFile.stat \"x\"\n"))

let p_negative () =
  check rules_testable "Mutex inside lib/cache is allowed" []
    (rules (lint ~file:"lib/cache/ra_cache.ml" "let m = Mutex.create ()\n"));
  check rules_testable "Unix inside the socket shell is allowed" []
    (rules (lint ~file:"lib/server/tcp.ml" "let s () = Unix.listen fd 64\n"));
  check rules_testable "Unix inside the journal's file backend is allowed" []
    (rules (lint ~file:"lib/journal/disk.ml" "let s f = Unix.openfile f [] 0o644\n"));
  check rules_testable "a wall-clock read is D2's diagnosis, not P3's" [ "D2" ]
    (rules (lint "let now () = Unix.gettimeofday ()\n"));
  check rules_testable "per-call state is not module state" []
    (rules (lint "let fresh () = Hashtbl.create 16\n"));
  check rules_testable "a lazy built per call is not module state" []
    (rules (lint "let fresh n = lazy (Array.make n 0)\n"));
  check rules_testable "Lazy.from_val is already forced" []
    (rules (lint "let size = Lazy.from_val 256\n"));
  check rules_testable "P2 scoping excludes unreachable paths" []
    (rules
       (lint
          ~config:
            { Ra_lint.default_config with Ra_lint.p2_paths = Some [ "lib/core/" ] }
          ~file:"lib/hydra/fixture.ml" "let memo = Hashtbl.create 16\n"))

(* --- family U: unsafe audit --------------------------------------------- *)

let u_positive () =
  check rules_testable "bare unsafe access fires U1 and U2" [ "U1"; "U2" ]
    (rules (lint "let head b = Bytes.unsafe_get b 0\n"));
  check rules_testable "cross-check alone still fires U1" [ "U1" ]
    (rules
       (lint
          "(* cross-check: Checked.fixture in test_lint.ml *)\n\
           let head b = Bytes.unsafe_get b 0\n"));
  check rules_testable "bounds comment alone still fires U2" [ "U2" ]
    (rules
       (lint "(* bounds: b is non-empty by construction. *)\nlet head b = Bytes.unsafe_get b 0\n"))

let u_negative () =
  check rules_testable "bounds + cross-check is clean" []
    (rules
       (lint
          "(* cross-check: Checked.fixture in test_lint.ml.\n\
          \   bounds: b is non-empty by construction. *)\n\
           let head b = Bytes.unsafe_get b 0\n"));
  check rules_testable "bounds comment inside the function attaches" []
    (rules
       (lint
          "(* cross-check: Checked.fixture in test_lint.ml *)\n\
           let head b =\n\
          \  (* bounds: b is non-empty by construction. *)\n\
          \  Bytes.unsafe_get b 0\n"));
  check rules_testable "a far-away bounds comment does not attach"
    [ "U1" ]
    (rules
       (lint
          "(* cross-check: Checked.fixture in test_lint.ml.\n\
          \   bounds: for some other function far above. *)\n\
           let unrelated = 1\n\
           let also_unrelated = 2\n\
           let and_more = 3\n\
           let head b = Bytes.unsafe_get b 0\n"))

(* --- family I: interface hygiene ---------------------------------------- *)

let i_positive () =
  check rules_testable "missing .mli fires I1" [ "I1" ]
    (rules
       (Ra_lint.check_interface ~file:"lib/core/fixture.ml" ~mli_exists:false
          "let answer = 42\n"))

let i_negative () =
  check rules_testable "present .mli is clean" []
    (rules
       (Ra_lint.check_interface ~file:"lib/core/fixture.ml" ~mli_exists:true
          "let answer = 42\n"));
  check rules_testable "module-type-only file is exempt" []
    (rules
       (Ra_lint.check_interface ~file:"lib/core/fixture_intf.ml" ~mli_exists:false
          "module type S = sig\n  val x : int\nend\n"));
  check rules_testable "allowlisted file is exempt" []
    (rules
       (Ra_lint.check_interface ~file:"lib/crypto/digest_intf.ml" ~mli_exists:false
          "let not_actually_an_interface = 0\n"))

(* Rule I2 reads a whole tree from disk: write the fixture files under a
   fresh temporary root, run the rule on [paths], and return the flagged
   exports as "file:path" (the fingerprint without rule and index). *)
let i2 ?(paths = [ "lib" ]) files =
  let root = Filename.temp_dir "ralint" "" in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  List.iter
    (fun (file, text) ->
      let path = Filename.concat root file in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc -> output_string oc text))
    files;
  let found = Ra_lint.unused_exports ~root paths in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  rm_rf root;
  List.map
    (fun f ->
      let fp = f.Ra_lint.fingerprint in
      String.sub fp 3 (String.rindex fp '#' - 3))
    found

let exporter =
  [
    ("lib/core/a.mli", "val v : int\nmodule Sub : sig\n  val w : int\nend\n");
    ("lib/core/a.ml", "let v = 1\nmodule Sub = struct\n  let w = v\nend\n");
  ]

let i2_positive () =
  let flagged = Alcotest.(check (list string)) in
  flagged "referenced nowhere, or only inside its own unit"
    [ "lib/core/a.mli:v"; "lib/core/a.mli:Sub.w" ]
    (i2 exporter);
  flagged "an e2ebench unit named Stats does not hide lib's"
    [ "lib/sim/stats.mli:dead" ]
    (i2
       [
         ("lib/sim/stats.mli", "val mean : int\nval dead : int\n");
         ("lib/sim/stats.ml", "let mean = 0\nlet dead = 1\n");
         ("e2ebench/stats.ml", "let median = 2\n");
         ("e2ebench/ingest.ml", "let m = Ra_sim.Stats.mean + Stats.median\n");
       ])

let i2_negative () =
  let clean what caller =
    Alcotest.(check (list string)) what [] (i2 (exporter @ [ caller ]))
  in
  let uses = "let x = Ra_core.A.v + Ra_core.A.Sub.w\n" in
  clean "qualified use from another unit" ("lib/server/b.ml", uses);
  clean "use through module X = A.B"
    ("bin/main.ml", "module X = Ra_core.A\nmodule S = X.Sub\nlet x = X.v + S.w\n");
  clean "use through an alias Callgraph does not record"
    ("bin/main.ml", "include struct\n  module X = Ra_core.A\n  let x = X.v + X.Sub.w\nend\n");
  clean "use under open" ("bench/main.ml", "open Ra_core.A\nlet x = v\n");
  clean "use under let open" ("bench/main.ml", "let x = let open Ra_core.A in v\n");
  clean "use under M.( ... )" ("bench/main.ml", "let x = Ra_core.A.(v)\n");
  clean "unit passed to a functor"
    ("examples/ex.ml", "module F (M : sig end) = struct end\nmodule G = F (Ra_core.A)\n");
  clean "unit packed as a first-class module"
    ("examples/ex.ml", "module type S = sig end\nlet m = (module Ra_core.A : S)\n");
  clean "submodule val used as U.Sub.v" ("lib/server/b.ml", "let x = A.Sub.w + A.v\n");
  clean "use only in test/" ("test/test_a.ml", uses);
  clean "use only in e2ebench/" ("e2ebench/rollcall.ml", uses);
  Alcotest.(check (list string))
    "a waiver on the val holds" []
    (i2
       [
         ( "lib/core/a.mli",
           "(* ralint: allow I2 -- called by name from a generated file *)\n\
            val v : int\n" );
         ("lib/core/a.ml", "let v = 1\n");
       ])

let i2_paths () =
  let tree =
    exporter
    @ [
        ("lib/server/b.mli", "val dead : int\n");
        ("lib/server/b.ml", "let dead = Ra_core.A.v + Ra_core.A.Sub.w\n");
      ]
  in
  Alcotest.(check (list string))
    "ralint lib/core judges lib/core against the whole tree" []
    (i2 ~paths:[ "lib/core" ] tree);
  List.iter
    (fun path ->
      Alcotest.(check (list string))
        ("ralint " ^ path ^ " reports the other unit too")
        [ "lib/server/b.mli:dead" ]
        (i2 ~paths:[ path ] tree))
    [ "lib"; "lib/"; "./lib"; "." ];
  (* the repository itself: every lib/core export has a caller somewhere *)
  let root =
    List.find
      (fun r -> Sys.file_exists (Filename.concat r "lib/parallel/dune"))
      [ "."; ".."; "../.."; "../../.." ]
  in
  Alcotest.(check (list string))
    "ralint lib/core on this tree" []
    (List.map
       (fun f -> f.Ra_lint.fingerprint)
       (Ra_lint.unused_exports ~root [ "lib/core" ]))

(* --- suppressions and fingerprints -------------------------------------- *)

let suppression () =
  check rules_testable "in-source waiver silences the named rule" []
    (rules
       (lint
          "(* ralint: allow P2 -- read-only table for tests. *)\n\
           let tbl = [| 1; 2 |]\n"));
  check rules_testable "waiver family letter covers the family" []
    (rules (lint "(* ralint: allow D -- fixture. *)\nlet roll () = Random.int 6\n"));
  check rules_testable "waiver covers adjacent attached items" []
    (rules
       (lint
          "(* ralint: allow P2 -- two read-only tables. *)\n\
           let a = [| 1 |]\n\
           let b = [| 2 |]\n"));
  check rules_testable "waiver for one rule leaves others firing" [ "D1" ]
    (rules (lint "(* ralint: allow P2 -- fixture. *)\nlet r () = Random.int 3\n"))

let fingerprints () =
  let fs =
    lint "let a b = Bytes.unsafe_get b 0\nlet c b = Bytes.unsafe_get b 1\n"
    |> List.filter (fun f -> f.Ra_lint.rule = "U1")
  in
  check (Alcotest.list Alcotest.string) "occurrence-indexed fingerprints"
    [
      "U1:lib/core/fixture.ml:Bytes.unsafe_get#0";
      "U1:lib/core/fixture.ml:Bytes.unsafe_get#1";
    ]
    (List.map (fun f -> f.Ra_lint.fingerprint) fs);
  (* A pure line move (leading comment) must not change fingerprints. *)
  let moved =
    lint
      "(* a comment that shifts every line *)\n\n\
       let a b = Bytes.unsafe_get b 0\nlet c b = Bytes.unsafe_get b 1\n"
    |> List.filter (fun f -> f.Ra_lint.rule = "U1")
  in
  check (Alcotest.list Alcotest.string) "fingerprints are line-move stable"
    (List.map (fun f -> f.Ra_lint.fingerprint) fs)
    (List.map (fun f -> f.Ra_lint.fingerprint) moved)

let parse_error () =
  Alcotest.check_raises "unparseable source raises"
    (Ra_lint.Lint_parse_error ("syntax error", 1)) (fun () ->
      ignore (lint "let let let\n"))

(* --- baseline ratchet ---------------------------------------------------- *)

let baseline_diff () =
  let findings =
    lint "let a b = Bytes.unsafe_get b 0\n"
  in
  (* All new against an empty baseline. *)
  let r0 = Ra_lint.diff ~baseline:[] findings in
  check Alcotest.int "all findings new" (List.length findings)
    (List.length (Ra_lint.new_findings r0));
  (* Accepted once baselined; nothing new, nothing stale. *)
  let baseline = List.map Ra_lint.entry_of_finding findings in
  let r1 = Ra_lint.diff ~baseline findings in
  check Alcotest.int "baselined findings are not new" 0
    (List.length (Ra_lint.new_findings r1));
  check Alcotest.int "no stale entries while sites fire" 0 (List.length r1.Ra_lint.stale);
  (* Fixed sites surface as drift. *)
  let r2 = Ra_lint.diff ~baseline [] in
  check Alcotest.int "fixed sites are stale" (List.length baseline)
    (List.length r2.Ra_lint.stale)

let entry_gen =
  let open QCheck in
  let token = string_small_of Gen.printable in
  Gen.map
    (fun ((r, f), p) -> { Ra_lint.b_rule = r; b_file = f; b_fingerprint = p })
    Gen.(pair (pair token.gen token.gen) token.gen)

let baseline_roundtrip =
  QCheck.Test.make ~count:200 ~name:"baseline emit -> parse -> compare is identity"
    (QCheck.make
       ~print:(fun es -> Ra_lint.baseline_to_json es)
       QCheck.Gen.(list_size (int_bound 12) entry_gen))
    (fun entries ->
      Ra_lint.baseline_of_json (Ra_lint.baseline_to_json entries) = entries)

(* --- interprocedural families L, O, C (Program) -------------------------- *)

let plint ?config sources =
  Ra_lint.Program.analyze ?config (Ra_lint.Program.load sources)

let sorted_rules findings = List.sort compare (rules findings)

(* family L: lock discipline *)

let store_file body = [ ("lib/cache/ra_cache.ml", "module Store = struct\n" ^ body ^ "end\n") ]

let l_positive () =
  check rules_testable "direct double acquire fires L1" [ "L1" ]
    (sorted_rules
       (plint
          (store_file
             "  let f t = Mutex.lock t.mutex; Mutex.lock t.mutex; Mutex.unlock t.mutex\n")));
  check rules_testable "double acquire through a callee fires L1" [ "L1" ]
    (sorted_rules
       (plint
          (store_file
             "  let inner t = Mutex.lock t.mutex; Mutex.unlock t.mutex\n\
             \  let outer t = Mutex.lock t.mutex; inner t; Mutex.unlock t.mutex\n")));
  check rules_testable "opposite acquisition orders fire L2" [ "L2" ]
    (sorted_rules
       (plint
          (store_file
             "  let ab t = Mutex.lock t.m1; Mutex.lock t.m2; Mutex.unlock t.m2; Mutex.unlock t.m1\n\
             \  let ba t = Mutex.lock t.m2; Mutex.lock t.m1; Mutex.unlock t.m1; Mutex.unlock t.m2\n")));
  check rules_testable "blocking syscall under a lock fires L3" [ "L3" ]
    (sorted_rules
       (plint
          (store_file
             "  let f t = Mutex.lock t.mutex; Unix.sleep 1; Mutex.unlock t.mutex\n")));
  check rules_testable "blocking callee under a lock fires L3" [ "L3" ]
    (sorted_rules
       (plint
          [ ( "lib/cache/ra_cache.ml",
              "module Store = struct\n\
              \  let slow () = Unix.sleep 1\n\
              \  let f t = Mutex.lock t.mutex; slow (); Mutex.unlock t.mutex\nend\n" ) ]));
  check rules_testable "fsync through Disk under a lock fires L3" [ "L3" ]
    (sorted_rules
       (plint
          (store_file
             "  let f t d = Mutex.lock t.mutex; d.Disk.sync d; Mutex.unlock t.mutex\n")));
  check rules_testable "digest hoisted out of the stripe lock fires L4" [ "L4" ]
    (sorted_rules
       (plint
          (store_file
             "  let compute t b = Algo.digest t.h b\n\
             \  let digest t b =\n\
             \    let d = compute t b in\n\
             \    Mutex.lock t.mutex; t.hits <- t.hits + 1; Mutex.unlock t.mutex; d\n")))

let l_negative () =
  check rules_testable "compute-inside-the-lock is clean" []
    (sorted_rules
       (plint
          (store_file
             "  let compute t b = Algo.digest t.h b\n\
             \  let digest t b =\n\
             \    Mutex.lock t.mutex;\n\
             \    let d = compute t b in\n\
             \    Mutex.unlock t.mutex; d\n")));
  check rules_testable "unlock before the blocking call is clean" []
    (sorted_rules
       (plint
          (store_file
             "  let f t = Mutex.lock t.mutex; Mutex.unlock t.mutex; Unix.sleep 1\n")));
  check rules_testable "Condition.wait releases the lock: not L3" []
    (sorted_rules
       (plint
          (store_file
             "  let f t = Mutex.lock t.mutex; Condition.wait t.cond t.mutex; Mutex.unlock t.mutex\n")));
  check rules_testable "balanced locking inside a lambda is clean" []
    (sorted_rules
       (plint
          (store_file
             "  let sum t f =\n\
             \    Array.fold_left\n\
             \      (fun acc s -> Mutex.lock s.mutex; let v = f s in Mutex.unlock s.mutex; acc + v)\n\
             \      0 t.stripes\n")));
  check rules_testable "consistent acquisition order is not L2" []
    (sorted_rules
       (plint
          (store_file
             "  let ab t = Mutex.lock t.m1; Mutex.lock t.m2; Mutex.unlock t.m2; Mutex.unlock t.m1\n\
             \  let ab2 t = Mutex.lock t.m1; Mutex.lock t.m2; Mutex.unlock t.m2; Mutex.unlock t.m1\n")));
  check rules_testable "digest outside the guarded scope is not L4" []
    (sorted_rules
       (plint
          [ ("lib/core/measure.ml", "let hash h b = Algo.digest h b\n") ]))

(* family O: protocol order *)

let core_file body = [ ("lib/server/core.ml", "module J = Ra_journal.Journal\n" ^ body) ]

let o_positive () =
  check rules_testable "Ack with no journal append fires O1" [ "O1" ]
    (sorted_rules (plint (core_file "let submit t d = Wire.Ack d\n")));
  check rules_testable "Ack after append but before commit fires O1" [ "O1" ]
    (sorted_rules
       (plint (core_file "let submit j d = J.append j d; Wire.Ack d\n")));
  check rules_testable "Ack on one unjournaled branch fires O1" [ "O1" ]
    (sorted_rules
       (plint
          (core_file
             "let submit j d ok =\n\
             \  if ok then begin J.append j d; J.commit j end;\n\
             \  Wire.Ack d\n")));
  check rules_testable "Ack built for a pending entry before the commit fires O1"
    [ "O1" ]
    (sorted_rules
       (plint
          (core_file
             "let commit t j =\n\
             \  let answers = List.map (fun d -> Wire.Ack d) t.owed in\n\
             \  J.commit j;\n\
             \  answers\n")));
  check rules_testable "Ack below a conditional commit fires O1" [ "O1" ]
    (sorted_rules
       (plint
          (core_file
             "let commit t j =\n\
             \  if t.dirty then J.commit j;\n\
             \  List.map (fun d -> Wire.Ack d) t.owed\n")));
  check rules_testable "Journal.restart without ~validate fires O2" [ "O2" ]
    (sorted_rules
       (plint (core_file "let recover disk = J.restart disk ~keep:3\n")))

let o_negative () =
  check rules_testable "append+commit then Ack is clean" []
    (sorted_rules
       (plint
          (core_file "let submit j d = J.append j d; J.commit j; Wire.Ack d\n")));
  check rules_testable "journaling through a helper is clean" []
    (sorted_rules
       (plint
          (core_file
             "let persist j d = J.append j d; J.commit j\n\
              let submit j d = persist j d; Wire.Ack d\n")));
  check rules_testable "reject branches owe no journal entry" []
    (sorted_rules
       (plint
          (core_file
             "let submit j d ok =\n\
             \  if not ok then Wire.Rejected \"bad\"\n\
             \  else begin J.append j d; J.commit j; Wire.Ack d end\n")));
  check rules_testable "diverging branches drop out of the join" []
    (sorted_rules
       (plint
          (core_file
             "let submit j d ok =\n\
             \  if not ok then failwith \"bad\"\n\
             \  else begin J.append j d; J.commit j end;\n\
             \  Wire.Ack d\n")));
  check rules_testable "Acks after an unconditional commit in a batch function are clean"
    []
    (sorted_rules
       (plint
          (core_file
             "let admit t j d = J.append j d; t.owed <- d :: t.owed\n\
              let commit t j =\n\
             \  J.commit j;\n\
             \  let owed = List.rev t.owed in\n\
             \  t.owed <- [];\n\
             \  List.map (fun d -> Wire.Ack d) owed\n")));
  check rules_testable "Ack outside lib/server Core is out of scope" []
    (sorted_rules
       (plint [ ("bin/loadgen.ml", "let expect d = Wire.Ack d\n") ]));
  check rules_testable "restart with ~validate is clean" []
    (sorted_rules
       (plint
          (core_file
             "let recover disk = J.restart ~validate:(fun _ -> true) disk ~keep:3\n")))

(* The regression the family exists for: a refactor of the real submit
   shape that hoists the Ack above the journal write must fail lint. *)
let o_reordered_core () =
  let reordered =
    "module J = Ra_journal.Journal\n\
     let submit t j device seq report =\n\
    \  if seq < 1 then Wire.Rejected \"sequence numbers start at 1\"\n\
    \  else begin\n\
    \    let ack = Wire.Ack { device; seq } in\n\
    \    J.append j (record device seq report);\n\
    \    J.commit j;\n\
    \    ack\n\
    \  end\n"
  and ordered =
    "module J = Ra_journal.Journal\n\
     let submit t j device seq report =\n\
    \  if seq < 1 then Wire.Rejected \"sequence numbers start at 1\"\n\
    \  else begin\n\
    \    J.append j (record device seq report);\n\
    \    J.commit j;\n\
    \    Wire.Ack { device; seq }\n\
    \  end\n"
  in
  check rules_testable "reordered Core submit fires O1" [ "O1" ]
    (sorted_rules (plint [ ("lib/server/core.ml", reordered) ]));
  check rules_testable "journal-before-Ack submit is clean" []
    (sorted_rules (plint [ ("lib/server/core.ml", ordered) ]))

(* family C: secret flow *)

let crypto_file body = [ ("lib/crypto/fixture.ml", body) ]

let c_positive () =
  check rules_testable "= on a key fires C1" [ "C1" ]
    (sorted_rules (plint (crypto_file "let check ~key probe = key = probe\n")));
  check rules_testable "Bytes.equal on a MAC tag fires C1" [ "C1" ]
    (sorted_rules
       (plint (crypto_file "let verify ~tag probe = Bytes.equal tag probe\n")));
  check rules_testable "comparing a MAC producer's output fires C1" [ "C1" ]
    (sorted_rules
       (plint
          (crypto_file
             "let verify ~key msg probe = Bytes.equal probe (Hmac.Sha256.mac ~key msg)\n")));
  check rules_testable "taint crossing into a comparing helper fires C1" [ "C1" ]
    (sorted_rules
       (plint
          (crypto_file
             "let eq a b = Bytes.equal a b\n\
              let verify ~key probe = eq key probe\n")));
  check rules_testable "taint through Bytes plumbing fires C1" [ "C1" ]
    (sorted_rules
       (plint
          (crypto_file
             "let check ~key probe = Bytes.equal (Bytes.sub key 0 16) probe\n")));
  check rules_testable "a secret in an exception message fires C2" [ "C2" ]
    (sorted_rules
       (plint (crypto_file "let boom ~key = failwith (Bytes.to_string key)\n")));
  check rules_testable "a verifier comparing a MAC in lib/core fires C1" [ "C1" ]
    (sorted_rules
       (plint
          [ ( "lib/core/fixture.ml",
              "let matches ~key msg report = Bytes.equal (Hmac.Sha256.mac ~key msg) report\n" )
          ]))

let c_negative () =
  check rules_testable "constant_time_equal is the sanctioned sink" []
    (sorted_rules
       (plint
          (crypto_file
             "let verify ~key probe = Bytesutil.constant_time_equal key probe\n")));
  check rules_testable "comparing public values is clean" []
    (sorted_rules
       (plint (crypto_file "let same a b = Bytes.equal a b\n")));
  check rules_testable "Nat.compare on curve coordinates is not a sink" []
    (sorted_rules
       (plint
          [ ("lib/pk/fixture.ml", "let le ~key other = Nat.compare key other <= 0\n") ]));
  check rules_testable "a journal record tag is not a MAC tag" []
    (sorted_rules
       (plint
          [ ( "lib/server/replay.ml",
              "let is_report ev report_tag = ev.Ev.tag = report_tag\n" ) ]));
  check rules_testable "an Error-branch message does not inherit Ok taint" []
    (sorted_rules
       (plint
          [ ( "lib/server/replay.ml",
              "let explain t d r =\n\
              \  match World.verify t ~device:d r with\n\
              \  | Ok (v, mac) -> Ok v\n\
              \  | Error e -> Error (Printf.sprintf \"replay failed: %s\" e)\n" );
            ( "lib/server/world.ml",
              "let verify t ~device r = Ok (0, Hmac.Sha256.mac ~key:t.key r)\n" )
          ]));
  check rules_testable "C findings stay inside the configured paths" []
    (sorted_rules
       (plint [ ("lib/experiments/fixture.ml", "let check ~key probe = key = probe\n") ]))

(* interprocedural waivers: near-site only *)

let program_waivers () =
  check rules_testable "a waiver directly above the flagged line holds" []
    (sorted_rules
       (plint
          (core_file
             "let submit t d =\n\
             \  (* ralint: allow O1 -- re-ack of an already-durable report *)\n\
             \  Wire.Ack d\n")));
  check rules_testable "a function-level waiver does not cover the body" [ "O1" ]
    (sorted_rules
       (plint
          (core_file
             "(* ralint: allow O1 -- too far from the site to count *)\n\
              let submit t d =\n\
             \  let x = ignore t in\n\
             \  ignore x;\n\
             \  Wire.Ack d\n")))

(* qcheck: interprocedural fingerprints are stable under pure line moves *)

let program_fingerprints () =
  (* two findings with the same (rule, token) must get occurrence indices *)
  let fs =
    plint
      (core_file "let a t d = Wire.Ack d\nlet b t d = Wire.Ack d\n")
  in
  check (Alcotest.list Alcotest.string) "occurrence-indexed fingerprints"
    [ "O1:lib/server/core.ml:Wire.Ack#0"; "O1:lib/server/core.ml:Wire.Ack#1" ]
    (List.map (fun f -> f.Ra_lint.fingerprint) fs)

let program_fingerprints_stable =
  QCheck.Test.make ~count:40
    ~name:"interprocedural fingerprints stable under line moves"
    QCheck.(int_bound 8)
    (fun n ->
      let pad = String.concat "" (List.init n (fun _ -> "(* moved *)\n")) in
      let body =
        "let persist j d = J.append j d; J.commit j\n\
         let a t d = Wire.Ack d\n\
         let b j d = J.append j d; Wire.Ack d\n"
      in
      let fps src =
        List.map
          (fun f -> f.Ra_lint.fingerprint)
          (plint (core_file src))
      in
      fps body = fps (pad ^ body))

(* --- repo-level invariants ----------------------------------------------- *)

let reachability () =
  (* The rule-P2 scope must include the libraries that submit Ra_parallel
     tasks and their dependencies, and must never include lib/parallel
     itself (it is the allowlisted implementation). *)
  (* cwd differs between `dune runtest` (the test's build dir) and a direct
     exec from the repo root; probe upward for the tree that holds lib/. *)
  let root =
    List.find
      (fun r -> Sys.file_exists (Filename.concat r "lib/parallel/dune"))
      [ "."; ".."; "../.."; "../../.." ]
  in
  let dirs = Ra_lint.Reach.parallel_reachable ~root in
  Alcotest.(check bool) "experiments submit tasks" true
    (List.mem "lib/experiments/" dirs);
  Alcotest.(check bool) "core is reachable from task closures" true
    (List.mem "lib/core/" dirs);
  Alcotest.(check bool) "crypto is reachable from task closures" true
    (List.mem "lib/crypto/" dirs)

let () =
  Alcotest.run "ra_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D positive" `Quick d_positive;
          Alcotest.test_case "D negative" `Quick d_negative;
          Alcotest.test_case "P positive" `Quick p_positive;
          Alcotest.test_case "P negative" `Quick p_negative;
          Alcotest.test_case "U positive" `Quick u_positive;
          Alcotest.test_case "U negative" `Quick u_negative;
          Alcotest.test_case "I positive" `Quick i_positive;
          Alcotest.test_case "I negative" `Quick i_negative;
          Alcotest.test_case "I2 positive" `Quick i2_positive;
          Alcotest.test_case "I2 negative" `Quick i2_negative;
        ] );
      ( "engine",
        [
          Alcotest.test_case "suppressions" `Quick suppression;
          Alcotest.test_case "fingerprints" `Quick fingerprints;
          Alcotest.test_case "parse error" `Quick parse_error;
          Alcotest.test_case "reachability" `Quick reachability;
          Alcotest.test_case "I2 paths" `Quick i2_paths;
        ] );
      ( "program",
        [
          Alcotest.test_case "L positive" `Quick l_positive;
          Alcotest.test_case "L negative" `Quick l_negative;
          Alcotest.test_case "O positive" `Quick o_positive;
          Alcotest.test_case "O negative" `Quick o_negative;
          Alcotest.test_case "reordered Core regression" `Quick o_reordered_core;
          Alcotest.test_case "C positive" `Quick c_positive;
          Alcotest.test_case "C negative" `Quick c_negative;
          Alcotest.test_case "near-site waivers" `Quick program_waivers;
          Alcotest.test_case "fingerprints" `Quick program_fingerprints;
          qtest program_fingerprints_stable;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "diff semantics" `Quick baseline_diff;
          qtest baseline_roundtrip;
        ] );
    ]
