(* ralint — run the Ra_lint rule families (DESIGN.md §10, §14) over the
   repo's own sources and gate against the committed ratchet baseline.

   Two passes share one file walk: the per-file rules (D/P/U/I1), then the
   interprocedural program analysis (L/O/C) over every file that parsed.
   Rule I2 (unused exports) reads the whole tree, e2ebench included,
   whatever paths are given, and reports on the lib interfaces among them.

   Exit status: 0 when every finding is covered by the baseline, 1 when a
   new finding (or a parse failure) appears. Stale baseline entries are
   reported as drift but do not fail the run; `--update-baseline`
   re-ratchets. *)

let usage =
  "ralint [options] [paths...]\n\
   Static analysis for determinism (D), parallel-safety (P), unsafe-code\n\
   discipline (U), interface hygiene (I), lock discipline (L), protocol\n\
   order (O) and secret flow (C).\n\
   Default paths: lib bin bench test examples."

let json_out = ref false
let baseline_path = ref "LINT_BASELINE.json"
let update_baseline = ref false
let gate_empty = ref false
let summaries = ref false
let only = ref ""
let rule = ref ""
let root = ref "."
let rest = ref []

let spec =
  [
    ("--json", Arg.Set json_out, " emit the report as JSON on stdout");
    ( "--baseline",
      Arg.Set_string baseline_path,
      "FILE ratchet baseline (default LINT_BASELINE.json; ignored if absent)" );
    ( "--update-baseline",
      Arg.Set update_baseline,
      " accept all current findings into the baseline file and exit 0" );
    ( "--gate-empty-baseline",
      Arg.Set gate_empty,
      " fail (exit 3) unless the baseline file is empty — CI keeps the \
       ratchet fully tightened" );
    ( "--only",
      Arg.Set_string only,
      "FAMS comma-separated rule families to report (e.g. L,O,C)" );
    ("--rule", Arg.Set_string rule, "ID report one rule only (e.g. O1)");
    ( "--summaries",
      Arg.Set summaries,
      " dump the converged per-function lock/journal/taint summaries and \
       exit" );
    ("--root", Arg.Set_string root, "DIR repository root (default .)");
  ]

(* The family/rule filter applies symmetrically to findings and baseline
   entries, so `--only L` shows the L slice of both sides of the diff. *)
let keep_rule r =
  if !rule <> "" then r = !rule
  else if !only = "" then true
  else
    let fams = String.split_on_char ',' !only in
    List.exists (fun f -> String.trim f <> "" && String.trim f = String.make 1 r.[0]) fams

let () =
  Arg.parse spec (fun p -> rest := p :: !rest) usage;
  (* ralint: allow D2 — lint wall time is diagnostic output, not simulated state *)
  let t0 = Unix.gettimeofday () in
  let paths =
    if !rest = [] then [ "lib"; "bin"; "bench"; "test"; "examples" ]
    else List.rev !rest
  in
  let root = !root in
  let config =
    {
      Ra_lint.default_config with
      Ra_lint.p2_paths = Some (Ra_lint.Reach.parallel_reachable ~root);
    }
  in
  let files = Ra_lint.source_files ~root ~suffix:".ml" paths in
  let sources =
    List.map (fun f -> (f, Ra_lint.read_text (Filename.concat root f))) files
  in
  let per_file =
    List.concat_map
      (fun (file, source) ->
        match Ra_lint.lint_source ~config ~file source with
        | fs ->
          let interface =
            let under_lib =
              String.length file >= 4 && String.sub file 0 4 = "lib/"
            in
            if not under_lib then []
            else
              let mli = Filename.concat root (Filename.remove_extension file ^ ".mli") in
              Ra_lint.check_interface ~config ~file ~mli_exists:(Sys.file_exists mli)
                source
          in
          fs @ interface
        | exception Ra_lint.Lint_parse_error (msg, line) ->
          [
            {
              Ra_lint.rule = "E1";
              file;
              line;
              col = 0;
              fingerprint = Printf.sprintf "E1:%s" file;
              message = "file does not parse: " ^ msg;
            };
          ])
      sources
  in
  let program = Ra_lint.Program.load sources in
  if !summaries then begin
    print_string (Ra_lint.Program.summaries ~config program);
    exit 0
  end;
  let findings =
    List.filter
      (fun (f : Ra_lint.finding) -> keep_rule f.rule)
      (per_file
      @ Ra_lint.Program.analyze ~config program
      @ Ra_lint.unused_exports ~config ~root paths)
  in
  let baseline_file =
    if Filename.is_relative !baseline_path then Filename.concat root !baseline_path
    else !baseline_path
  in
  if !update_baseline then begin
    let oc = open_out baseline_file in
    output_string oc
      (Ra_lint.baseline_to_json (List.map Ra_lint.entry_of_finding findings));
    close_out oc;
    Printf.printf "ralint: wrote %d finding(s) to %s\n" (List.length findings)
      !baseline_path;
    exit 0
  end;
  let baseline =
    if Sys.file_exists baseline_file then
      try
        List.filter
          (fun (b : Ra_lint.baseline_entry) -> keep_rule b.b_rule)
          (Ra_lint.baseline_of_json (Ra_lint.read_text baseline_file))
      with Ra_experiments.Benchkit.Parse_error msg ->
        Printf.eprintf "ralint: malformed baseline %s: %s\n" !baseline_path msg;
        exit 2
    else []
  in
  if !gate_empty && baseline <> [] then begin
    Printf.eprintf
      "ralint: baseline %s carries %d accepted finding(s); the ratchet must \
       stay empty — fix the findings instead\n"
      !baseline_path (List.length baseline);
    exit 3
  end;
  let report = Ra_lint.diff ~baseline findings in
  print_string
    (if !json_out then Ra_lint.render_json report else Ra_lint.render_human report);
  (* ralint: allow D2 — lint wall time is diagnostic output, not simulated state *)
  Printf.eprintf "ralint: %d file(s) in %.2fs\n" (List.length files)
    (Unix.gettimeofday () -. t0);
  exit (if Ra_lint.new_findings report = [] then 0 else 1)
