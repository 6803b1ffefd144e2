(* Diff a bench run against a committed baseline; exit non-zero on
   regression. Usage:

     compare.exe [--tolerance 0.2] [--only exact|wall] BASELINE.json CURRENT.json [...]

   Files pair up positionally: baseline1 current1 baseline2 current2 ...
   The default 20% tolerance suits same-machine comparisons; CI passes a
   looser value because the committed baselines come from another host.

   --only exact restricts the comparison to deterministic count metrics
   (compared for equality — the gating CI pass); --only wall restricts it
   to the remaining wall-time/throughput metrics (tolerance-gated, run
   non-gating in CI because they flake across runners). *)

type only = All | Exact_only | Wall_only

let () =
  let tolerance = ref 0.2 in
  let only = ref All in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0. ->
        tolerance := t;
        parse rest
      | _ ->
        prerr_endline "compare: --tolerance expects a positive float";
        exit 2)
    | "--only" :: v :: rest -> (
      match v with
      | "exact" ->
        only := Exact_only;
        parse rest
      | "wall" ->
        only := Wall_only;
        parse rest
      | _ ->
        prerr_endline "compare: --only expects 'exact' or 'wall'";
        exit 2)
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' ->
      Printf.eprintf "compare: unknown flag %s\n" flag;
      exit 2
    | file :: rest ->
      files := file :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  let rec pairs = function
    | [] -> []
    | baseline :: current :: rest -> (baseline, current) :: pairs rest
    | [ _ ] ->
      prerr_endline
        "compare: expected BASELINE CURRENT file pairs (odd count given)";
      exit 2
  in
  let pairs = pairs files in
  if pairs = [] then begin
    prerr_endline
      "usage: compare.exe [--tolerance T] BASELINE.json CURRENT.json [...]";
    exit 2
  end;
  let open Ra_experiments.Benchkit in
  let keep m =
    match !only with
    | All -> true
    | Exact_only -> m.exact
    | Wall_only -> not m.exact
  in
  let report, ok =
    compare_all ~tolerance:!tolerance ~keep
      (List.map
         (fun (baseline_file, current_file) ->
           ( Printf.sprintf "%s vs %s%s" baseline_file current_file
               (match !only with
               | All -> ""
               | Exact_only -> " (exact metrics only)"
               | Wall_only -> " (wall metrics only)"),
             fun () -> (read_file baseline_file, read_file current_file) ))
         pairs)
  in
  print_string report;
  exit (if ok then 0 else 1)
