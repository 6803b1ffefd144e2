(* BENCHMARK.json: reading and validating it, and judging two sets of runs
   against the bounds it fixes. *)

module B = Ra_experiments.Benchkit

type metric = { name : string; unit_ : string; lower_better : bool; bound : float option }

(* What the benchmark's own code needs; the other keys are only checked. *)
type t = {
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let is_alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
let only chars s = String.for_all (fun c -> is_alnum c || String.contains chars c) s

let valid_name s =
  s <> "" && String.length s <= 64 && is_alnum s.[0] && only "_.-" s

let valid_unit s = s <> "" && String.length s <= 16 && only "_/%.-" s

let valid_path s =
  s <> "" && String.length s <= 200 && s.[0] <> '/' && only "_.-/" s
  && not (List.mem ".." (String.split_on_char '/' s))

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let fields what keys = function
  | B.J_object kv ->
      let got = List.sort compare (List.map fst kv) in
      if got <> List.sort compare keys then
        fail "%s: keys must be exactly %s" what (String.concat ", " keys);
      kv
  | _ -> fail "%s: expected an object" what

let str what = function B.J_string s -> s | _ -> fail "%s: expected a string" what
let arr what = function B.J_array l -> l | _ -> fail "%s: expected an array" what

let count what l lo hi =
  let n = List.length l in
  if n < lo || n > hi then fail "%s: %d entries, expected %d to %d" what n lo hi;
  l

let metric ~with_bound what j =
  let keys = [ "name"; "unit"; "better" ] @ if with_bound then [ "bound" ] else [] in
  let kv = fields what keys j in
  let name = str what (List.assoc "name" kv) in
  if not (valid_name name) then fail "%s: bad name %S" what name;
  let unit_ = str name (List.assoc "unit" kv) in
  if not (valid_unit unit_) then fail "%s: bad unit %S" name unit_;
  let lower_better =
    match str name (List.assoc "better" kv) with
    | "lower" -> true
    | "higher" -> false
    | b -> fail "%s: better must be lower or higher, not %S" name b
  in
  let bound =
    if not with_bound then None
    else
      match List.assoc "bound" kv with
      | B.J_number b when b > 0. && b <= 0.25 -> Some b
      | _ -> fail "%s: bound must be a number in (0, 0.25]" name
  in
  { name; unit_; lower_better; bound }

let of_json j =
  let kv =
    fields "BENCHMARK.json"
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      j
  in
  let get k = List.assoc k kv in
  let command = List.map (str "command") (count "command" (arr "command" (get "command")) 1 32) in
  List.iter
    (fun s ->
      if String.length s > 200 || (s <> "" && s.[0] = '/')
         || List.mem ".." (String.split_on_char '/' s)
      then fail "command: bad argument %S" s)
    command;
  let paths = List.map (str "paths") (count "paths" (arr "paths" (get "paths")) 1 16) in
  List.iter (fun p -> if not (valid_path p) then fail "paths: bad path %S" p) paths;
  (match get "run_seconds" with
  | B.J_number f when Float.is_integer f && f >= 1. && f <= 60. -> ()
  | _ -> fail "run_seconds: expected a whole number from 1 to 60");
  let workloads =
    List.map
      (fun w ->
        let kv = fields "workload" [ "name"; "why" ] w in
        let name = str "workload" (List.assoc "name" kv) in
        let why = str name (List.assoc "why" kv) in
        if not (valid_name name) then fail "workload: bad name %S" name;
        if why = "" || String.length why > 200 || String.contains why '\n' then
          fail "%s: why must be one line of at most 200 characters" name;
        (name, why))
      (count "workloads" (arr "workloads" (get "workloads")) 2 8)
  in
  let end_to_end =
    List.map (metric ~with_bound:true "end_to_end")
      (count "end_to_end" (arr "end_to_end" (get "end_to_end")) 1 16)
  in
  let per_layer =
    List.map (metric ~with_bound:false "per_layer")
      (count "per_layer" (arr "per_layer" (get "per_layer")) 1 128)
  in
  let names =
    List.map fst workloads @ List.map (fun m -> m.name) (end_to_end @ per_layer)
  in
  List.iter
    (fun n -> if List.length (List.filter (( = ) n) names) > 1 then fail "name %S used twice" n)
    names;
  (match List.find_opt (fun m -> m.name = "setup_s") end_to_end with
  | Some { unit_ = "s"; lower_better = true; bound = Some b; _ } ->
      if List.exists (fun m -> Option.value m.bound ~default:0. > b) end_to_end then
        fail "setup_s must have the largest bound"
  | _ -> fail "end_to_end needs setup_s in s, lower is better");
  { workloads; end_to_end; per_layer }

let parse text =
  match of_json (B.parse_json text) with
  | t -> Ok t
  | exception Invalid e -> Error e
  | exception B.Parse_error e -> Error ("malformed JSON: " ^ e)

let load path = parse (Osproc.read_file path)

(* --- judging two sets of runs --------------------------------------------- *)

type row = {
  workload : string;
  metric : string;
  base : float;  (** median of the first set *)
  cand : float;  (** median of the second set *)
  worse : float;  (** how much worse the second median is, as a share of the first *)
  bound : float;
  base_spread : float;  (** quartile distance over median, first set *)
  cand_spread : float;
  ok : bool;
}

(* [values workload metric] gives each set's values for one pair. Every
   pair is judged; the caller fails if any row is not ok. *)
let judge spec ~base ~cand =
  List.concat_map
    (fun (workload, _) ->
      List.map
        (fun m ->
          let vb = Array.of_list (base workload m.name) and vc = Array.of_list (cand workload m.name) in
          let bound = Option.value m.bound ~default:0. in
          if Array.length vb = 0 || Array.length vc = 0 then
            { workload; metric = m.name; base = nan; cand = nan; worse = nan; bound;
              base_spread = nan; cand_spread = nan; ok = false }
          else
            let mb = Stats.median vb and mc = Stats.median vc in
            let worse = (if m.lower_better then mc -. mb else mb -. mc) /. Float.abs mb in
            { workload; metric = m.name; base = mb; cand = mc; worse; bound;
              base_spread = Stats.spread vb; cand_spread = Stats.spread vc; ok = worse <= bound })
        spec.end_to_end)
    spec.workloads

let render rows =
  Printf.sprintf "%-14s %-18s %12s %12s %8s %6s %8s %8s  %s" "workload" "metric" "first" "second"
    "worse" "bound" "spread1" "spread2" "verdict"
  :: List.map
       (fun r ->
         Printf.sprintf "%-14s %-18s %12.4f %12.4f %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s" r.workload r.metric
           r.base r.cand (100. *. r.worse) (100. *. r.bound) (100. *. r.base_spread)
           (100. *. r.cand_spread)
           (if r.ok then "ok" else "REGRESSED"))
       rows
