(* The end-to-end benchmark's command line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--ratool PATH] [--out DIR]
       One run of one workload. Prints every metric with its unit and
       sample count, every correctness check and, with --trace 1, the layer
       table (spans go to DIR/NAME-N/spans.jsonl); the last line of stdout
       is the JSON result. Exits 1 if a check fails.

     main.exe --smoke [--ratool PATH] [--out DIR]
       Every workload at toy size, traced, with every check.

     main.exe compare [--spec BENCHMARK.json] DIR1 DIR2
       Judge two sets of runs (DIR/WORKLOAD.jsonl, one result line per run)
       against the bounds in the spec: every pair is reported, and the exit
       code is 1 if any second median is worse than its bound allows. *)

open E2e

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--ratool PATH] [--out DIR]\n\
    \       main.exe --smoke [--ratool PATH] [--out DIR]\n\
    \       main.exe compare [--spec BENCHMARK.json] DIR1 DIR2";
  exit 2

let run_workload ~ratool ~out ~workload ~seed ~seconds ~trace ~smoke =
  let dir = Filename.concat out (Printf.sprintf "%s-%d" workload seed) in
  Osproc.rm_rf dir;
  Osproc.mkdir_p dir;
  let outcome =
    if workload = Catalog.rollcall then
      Rollcall.run ~cfg:(if smoke then Rollcall.smoke else Rollcall.full) ~seed ~seconds ~trace ~out:dir
    else
      let mode =
        if workload = Catalog.steady then Ingest.Steady
        else if workload = Catalog.burst then Ingest.Burst
        else (
          Printf.eprintf "unknown workload %s (known: %s)\n" workload
            (String.concat ", " Catalog.workloads);
          exit 2)
      in
      Ingest.run ~ratool ~cfg:(if smoke then Ingest.smoke else Ingest.full) ~mode ~seed ~seconds ~trace
        ~out:dir
  in
  List.iter (fun sub -> Osproc.rm_rf (Filename.concat dir sub)) [ "journal"; "replay" ];
  if Sys.readdir dir = [||] then Osproc.rm_rf dir;
  outcome

let run args =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let smoke = ref false in
  let ratool = ref "_build/default/bin/ratool.exe" and out = ref "e2ebench/_out" in
  let int_arg name v =
    match int_of_string_opt v with Some n -> n | None -> (Printf.eprintf "%s expects an integer\n" name; exit 2)
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: r -> smoke := true; parse r
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := Some (int_arg "--seed" v); parse r
    | "--seconds" :: v :: r -> seconds := Some (float_of_int (int_arg "--seconds" v)); parse r
    | "--trace" :: v :: r -> trace := Some (int_arg "--trace" v <> 0); parse r
    | "--ratool" :: v :: r -> ratool := v; parse r
    | "--out" :: v :: r -> out := v; parse r
    | a :: _ -> Printf.eprintf "unexpected argument %s\n" a; usage ()
  in
  parse args;
  let ratool = !ratool and out = !out in
  if !smoke then begin
    let ok =
      List.for_all
        (fun (workload, seconds) ->
          let o = run_workload ~ratool ~out ~workload ~seed:1 ~seconds ~trace:true ~smoke:true in
          let ok = Outcome.correct o in
          if ok then Printf.printf "smoke %s: %d checks ok\n%!" workload (List.length o.Outcome.checks)
          else print_string (Outcome.render ~workload o);
          ok)
        [ (Catalog.rollcall, 1.); (Catalog.steady, 1.); (Catalog.burst, Ingest.smoke.Ingest.period_s) ]
    in
    exit (if ok then 0 else 1)
  end;
  match (!workload, !seed, !seconds, !trace) with
  | "", _, _, _ | _, None, _, _ | _, _, None, _ | _, _, _, None -> usage ()
  | workload, Some seed, Some seconds, Some trace ->
      if seconds < 1. then usage ();
      Osproc.watchdog 175;
      let o = run_workload ~ratool ~out ~workload ~seed ~seconds ~trace ~smoke:false in
      print_string (Outcome.render ~workload o);
      print_endline (Outcome.json_line o ~trace);
      exit (if Outcome.correct o then 0 else 1)

let compare args =
  let spec_path = ref "BENCHMARK.json" in
  let rec parse acc = function
    | "--spec" :: v :: r -> spec_path := v; parse acc r
    | d :: r -> parse (d :: acc) r
    | [] -> List.rev acc
  in
  match parse [] args with
  | [ d1; d2 ] ->
      let spec = match Spec.load !spec_path with Ok s -> s | Error e -> (Printf.eprintf "%s: %s\n" !spec_path e; exit 2) in
      let runs dir workload =
        let path = Filename.concat dir (workload ^ ".jsonl") in
        if not (Sys.file_exists path) then []
        else
          Osproc.read_lines path
          |> List.filter (fun l -> String.trim l <> "")
          |> List.map Ra_experiments.Benchkit.parse_json
      in
      let field k = function Ra_experiments.Benchkit.J_object kv -> List.assoc_opt k kv | _ -> None in
      let values dir workload metric =
        List.filter_map
          (fun j ->
            match Option.bind (Option.bind (field "metrics" j) (field metric)) (field "value") with
            | Some (Ra_experiments.Benchkit.J_number v) -> Some v
            | _ -> None)
          (runs dir workload)
      in
      let rows = Spec.judge spec ~base:(values d1) ~cand:(values d2) in
      List.iter print_endline (Spec.render rows);
      let bad = List.filter (fun r -> not r.Spec.ok) rows in
      Printf.printf "%d pair(s) judged, %d regressed\n" (List.length rows) (List.length bad);
      exit (if bad = [] then 0 else 1)
  | _ -> usage ()

let () =
  Ra_parallel.set_default_jobs 1;
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare rest
  | args -> (
      try run args with
      | Failure e | Sys_error e | Invalid_argument e ->
          Printf.eprintf "e2e: %s\n" e;
          exit 1)
