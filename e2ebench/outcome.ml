(* What one workload run produced, and how it is printed: a human-readable
   block (every metric by name with unit and sample count, every check,
   the layer table) followed by the one-line JSON result. *)

type metric = { name : string; value : float; samples : int }

type t = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  e2e : metric list;
  layers : (string * float) list;  (** per-layer metrics; trace runs only *)
  notes : string list;  (** extra human-readable lines *)
}

let metric ?(samples = 1) name value = { name; value; samples }
let correct t = List.for_all snd t.checks

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Outcome.json_number: non-finite metric"

let json_line t ~trace =
  let metrics =
    if trace then
      List.map
        (fun (name, _, _) ->
          (name, Option.value ~default:0. (List.assoc_opt name t.layers)))
        Catalog.per_layer
    else
      List.map
        (fun (name, _) ->
          match List.find_opt (fun m -> m.name = name) t.e2e with
          | Some m -> (name, m.value)
          | None -> invalid_arg ("Outcome.json_line: missing metric " ^ name))
        Catalog.end_to_end
  in
  let body =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          (Catalog.unit_of name))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct t) t.attempted t.failed (String.concat ", " body)

let render ~workload t =
  let b = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  p "== %s" workload;
  List.iter
    (fun m -> p "  %-18s %14.4f %-6s n=%d" m.name m.value (Catalog.unit_of m.name) m.samples)
    t.e2e;
  p "  attempted %d, failed %d" t.attempted t.failed;
  List.iter (fun (c, ok) -> p "  check %-52s %s" c (if ok then "ok" else "FAILED")) t.checks;
  List.iter (fun l -> p "  %s" l) t.notes;
  if t.layers <> [] then begin
    p "  per-layer:";
    List.iter
      (fun (name, v) -> p "    %-28s %14.6f %s" name v (Catalog.unit_of name))
      t.layers
  end;
  Buffer.contents b
