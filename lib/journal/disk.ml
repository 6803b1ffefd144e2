type t = {
  read : string -> Bytes.t option;
  write : string -> Bytes.t -> unit;
  append : string -> Bytes.t -> unit;
  truncate : string -> int -> unit;
  sync : string -> unit;
  rename : string -> string -> unit;
  remove : string -> unit;
  sync_dir : unit -> unit;
  list : unit -> string list;
}

(* ------------------------------------------------------------------ *)
(* Real directory backend                                              *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file ~dir =
  mkdir_p dir;
  let path name = Filename.concat dir name in
  let read name =
    let p = path name in
    if not (Sys.file_exists p) then None
    else begin
      let ic = open_in_bin p in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          let b = Bytes.create n in
          really_input ic b 0 n;
          Some b)
    end
  in
  let write name b =
    let oc = open_out_bin (path name) in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_bytes oc b)
  in
  let append name b =
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (path name)
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_bytes oc b)
  in
  let truncate name len = Unix.truncate (path name) len in
  let sync name =
    match Unix.openfile (path name) [ Unix.O_WRONLY ] 0o644 with
    | fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let rename from_ to_ = Sys.rename (path from_) (path to_) in
  let remove name = if Sys.file_exists (path name) then Sys.remove (path name) in
  let sync_dir () =
    (* Directory fsync is the POSIX way to make renames durable; some
       platforms refuse to open a directory for reading — best effort. *)
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | fd ->
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  let list () = Sys.readdir dir |> Array.to_list |> List.sort compare in
  { read; write; append; truncate; sync; rename; remove; sync_dir; list }

(* ------------------------------------------------------------------ *)
(* In-memory backend with crash injection                              *)
(* ------------------------------------------------------------------ *)

module Mem = struct
  type op = Set of Bytes.t | Append of Bytes.t

  type entry = {
    mutable synced : Buffer.t option;  (* None: absent in the durable state *)
    mutable ops : op list;  (* newest first *)
  }

  type store = {
    (* assoc list, not Hashtbl: iteration order must be deterministic *)
    mutable files : (string * entry) list;
    (* renames visible now but durable only after sync_dir; oldest first *)
    mutable pending : (string * string * entry option) list;
  }

  type faults = {
    drop_write : float;
    tear_write : float;
    duplicate_tail : float;
    undo_rename : float;
  }

  let no_faults =
    { drop_write = 0.0; tear_write = 0.0; duplicate_tail = 0.0; undo_rename = 0.0 }

  let default_faults =
    { drop_write = 0.25; tear_write = 0.3; duplicate_tail = 0.2; undo_rename = 0.4 }

  let create () = { files = []; pending = [] }

  let entry st name =
    match List.assoc_opt name st.files with
    | Some e -> e
    | None ->
        let e = { synced = None; ops = [] } in
        st.files <- st.files @ [ (name, e) ];
        e

  (* The file as a normal (crash-free) reader sees it: synced base plus
     every unsynced op in order. *)
  let view e =
    List.fold_left
      (fun cur op ->
        match op with
        | Set b -> Some (Bytes.copy b)
        | Append b -> (
            match cur with
            | None -> Some (Bytes.copy b)
            | Some c -> Some (Bytes.cat c b)))
      (Option.map Buffer.to_bytes e.synced)
      (List.rev e.ops)

  let exists e = view e <> None

  let bernoulli rng p = p > 0.0 && Ra_sim.Prng.float rng < p

  (* Resolve one file's unsynced ops under the fault mix. An op after a
     dropped or torn one never lands: the write queue was cut there.
     The synced buffer grows in place, not Bytes.cat per op nor a copy
     per sync — a WAL commit must cost the batch, not the whole file so
     far. *)
  let resolve ?(faults = no_faults) ?rng e =
    let buf = Option.value e.synced ~default:(Buffer.create 256) in
    let present = ref (Option.is_some e.synced) in
    (* start of the appended-since-last-Set region (duplicate_tail only
       replays bytes from the unsynced appended suffix) *)
    let app_start = ref (Buffer.length buf) in
    let stopped = ref false in
    let prefix rng b =
      let n = Bytes.length b in
      if n = 0 then b else Bytes.sub b 0 (Ra_sim.Prng.int rng ~bound:n)
    in
    List.iter
      (fun op ->
        if not !stopped then
          match (op, rng) with
          | _, Some rng when bernoulli rng faults.drop_write -> stopped := true
          | Set b, Some rng when bernoulli rng faults.tear_write ->
              Buffer.clear buf;
              Buffer.add_bytes buf (prefix rng b);
              present := true;
              app_start := Buffer.length buf;
              stopped := true
          | Set b, _ ->
              Buffer.clear buf;
              Buffer.add_bytes buf b;
              present := true;
              app_start := Buffer.length buf
          | Append b, Some rng when bernoulli rng faults.tear_write ->
              Buffer.add_bytes buf (prefix rng b);
              present := true;
              stopped := true
          | Append b, _ ->
              Buffer.add_bytes buf b;
              present := true)
      (List.rev e.ops);
    (match rng with
    | Some rng
      when Buffer.length buf > !app_start && bernoulli rng faults.duplicate_tail ->
        let tail = Buffer.sub buf !app_start (Buffer.length buf - !app_start) in
        let n = String.length tail in
        let start = Ra_sim.Prng.int rng ~bound:n in
        Buffer.add_string buf (String.sub tail start (n - start))
    | _ -> ());
    e.synced <- (if !present then Some buf else None);
    e.ops <- []

  let disk st =
    let read name =
      match List.assoc_opt name st.files with
      | None -> None
      | Some e -> view e
    in
    let write name b = (entry st name).ops <- [ Set (Bytes.copy b) ] in
    let append name b =
      let e = entry st name in
      e.ops <- Append (Bytes.copy b) :: e.ops
    in
    let truncate name len =
      let e = entry st name in
      match view e with
      | None -> ()
      | Some b ->
          let len = min len (Bytes.length b) in
          e.ops <- [ Set (Bytes.sub b 0 len) ]
    in
    let sync name =
      match List.assoc_opt name st.files with
      | None -> ()
      | Some e -> resolve e
    in
    let rename from_ to_ =
      match List.assoc_opt from_ st.files with
      | None -> invalid_arg ("Disk.Mem.rename: no such file " ^ from_)
      | Some e ->
          let displaced = List.assoc_opt to_ st.files in
          st.files <-
            List.filter (fun (n, _) -> n <> from_ && n <> to_) st.files
            @ [ (to_, e) ];
          st.pending <- st.pending @ [ (from_, to_, displaced) ]
    in
    let remove name = st.files <- List.filter (fun (n, _) -> n <> name) st.files in
    let sync_dir () = st.pending <- [] in
    let list () =
      st.files
      |> List.filter (fun (_, e) -> exists e)
      |> List.map fst
      |> List.sort compare
    in
    { read; write; append; truncate; sync; rename; remove; sync_dir; list }

  let undo_rename st (from_, to_, displaced) =
    match List.assoc_opt to_ st.files with
    | None -> ()
    | Some e ->
        st.files <- List.filter (fun (n, _) -> n <> to_ && n <> from_) st.files;
        st.files <- st.files @ [ (from_, e) ];
        (match displaced with
        | Some d -> st.files <- st.files @ [ (to_, d) ]
        | None -> ())

  let crash ?(faults = default_faults) ~rng st =
    List.iter (fun (_, e) -> resolve ~faults ~rng e) st.files;
    (* newest rename first, so chained renames unwind consistently *)
    List.iter
      (fun r -> if bernoulli rng faults.undo_rename then undo_rename st r)
      (List.rev st.pending);
    st.pending <- [];
    (* files that never became durable are gone *)
    st.files <- List.filter (fun (_, e) -> Option.is_some e.synced) st.files
end
