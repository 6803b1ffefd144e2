open Ra_sim

type journal_entry = { when_ : Timebase.t; block : int; after : Bytes.t }

(* A block is writable, hard-locked (writes fail), or copy-on-write locked:
   writes succeed into a shadow while readers keep seeing the frozen
   content; the shadow merges into the block when the lock is released. *)
type lock_state = Unlocked | Locked_hard | Locked_cow of Bytes.t option ref

(* Per-block storage: [data.(b)] is the live content of block [b], and
   [versions.(b)] counts the times that content has changed since creation.
   Readers observing an unchanged version are guaranteed unchanged bytes,
   which is what the measurement digest cache keys on. Cow-diverted writes
   do not bump the version until the shadow merges — readers (and the
   cache) keep seeing the frozen content until then. *)
type t = {
  data : Bytes.t array;
  block_size : int;
  blocks : int;
  locks : lock_state array;
  versions : int array;
  initial : Bytes.t;
  mutable journal : journal_entry list; (* newest first *)
  mutable unlock_subscribers : (int -> unit) list;
}

type write_error = Locked of int

let create ~image ~block_size =
  let size = Bytes.length image in
  if block_size <= 0 || size = 0 || size mod block_size <> 0 then
    invalid_arg "Memory.create: image must be a positive multiple of block_size";
  let blocks = size / block_size in
  {
    data = Array.init blocks (fun b -> Bytes.sub image (b * block_size) block_size);
    block_size;
    blocks;
    locks = Array.make blocks Unlocked;
    versions = Array.make blocks 0;
    initial = Bytes.copy image;
    journal = [];
    unlock_subscribers = [];
  }

let block_count t = t.blocks
let block_size t = t.block_size
let size t = t.blocks * t.block_size

let check_block t block =
  if block < 0 || block >= t.blocks then invalid_arg "Memory: block out of range"

let read_block t block =
  check_block t block;
  Bytes.copy t.data.(block)

let with_block t block f =
  check_block t block;
  f t.data.(block)

let version t block =
  check_block t block;
  t.versions.(block)

let record t ~time ~block =
  let after = Bytes.copy t.data.(block) in
  t.journal <- { when_ = time; block; after } :: t.journal;
  t.versions.(block) <- t.versions.(block) + 1

let write t ~time ~block ~offset payload =
  check_block t block;
  let len = Bytes.length payload in
  if offset < 0 || offset + len > t.block_size then
    invalid_arg "Memory.write: slice exceeds block";
  match t.locks.(block) with
  | Locked_hard -> Error (Locked block)
  | Unlocked ->
    Bytes.blit payload 0 t.data.(block) offset len;
    record t ~time ~block;
    Ok ()
  | Locked_cow shadow ->
    (* Divert the write: readers keep the frozen content, the journal only
       changes when the shadow merges at release time. *)
    let base =
      match !shadow with
      | Some existing -> existing
      | None ->
        let copy = Bytes.copy t.data.(block) in
        shadow := Some copy;
        copy
    in
    Bytes.blit payload 0 base offset len;
    Ok ()

let set_block t ~time ~block payload =
  if Bytes.length payload <> t.block_size then
    invalid_arg "Memory.set_block: wrong payload size";
  write t ~time ~block ~offset:0 payload

let lock t block =
  check_block t block;
  t.locks.(block) <- Locked_hard

let lock_cow t block =
  check_block t block;
  match t.locks.(block) with
  | Locked_cow _ -> ()
  | Unlocked | Locked_hard -> t.locks.(block) <- Locked_cow (ref None)

let has_shadow t block =
  check_block t block;
  match t.locks.(block) with
  | Locked_cow { contents = Some _ } -> true
  | Locked_cow { contents = None } | Unlocked | Locked_hard -> false

let unlock ?time t block =
  check_block t block;
  match t.locks.(block) with
  | Unlocked -> ()
  | Locked_hard ->
    t.locks.(block) <- Unlocked;
    List.iter (fun f -> f block) t.unlock_subscribers
  | Locked_cow shadow ->
    (match !shadow with
    | None -> ()
    | Some pending ->
      (* Merging a shadow is a real content change: it must land in the
         journal at the actual release time, or the temporal-consistency
         reconstruction sees the merged bytes as present since time 0. *)
      let time =
        match time with
        | Some time -> time
        | None ->
          invalid_arg
            "Memory.unlock: releasing a cow lock with a pending shadow \
             requires ~time"
      in
      Bytes.blit pending 0 t.data.(block) 0 t.block_size;
      record t ~time ~block);
    t.locks.(block) <- Unlocked;
    List.iter (fun f -> f block) t.unlock_subscribers

let is_locked t block =
  check_block t block;
  match t.locks.(block) with
  | Unlocked -> false
  | Locked_hard | Locked_cow _ -> true

let locked_count t =
  Array.fold_left
    (fun acc l -> match l with Unlocked -> acc | Locked_hard | Locked_cow _ -> acc + 1)
    0 t.locks

let lock_all t =
  for block = 0 to t.blocks - 1 do
    t.locks.(block) <- Locked_hard
  done

let lock_all_cow t =
  for block = 0 to t.blocks - 1 do
    lock_cow t block
  done

let unlock_all ?time t =
  for block = 0 to t.blocks - 1 do
    unlock ?time t block
  done

let subscribe_unlock t f = t.unlock_subscribers <- f :: t.unlock_subscribers

let snapshot t =
  let image = Bytes.create (t.blocks * t.block_size) in
  Array.iteri
    (fun b content -> Bytes.blit content 0 image (b * t.block_size) t.block_size)
    t.data;
  image

let initial_image t = Bytes.copy t.initial

(* The journal is newest-first; for each block only the last write at or
   before [time] matters. *)
let content_at t ~time =
  let image = Bytes.copy t.initial in
  let applied = Array.make t.blocks false in
  let rec apply = function
    | [] -> ()
    | entry :: older ->
      if entry.when_ <= time && not applied.(entry.block) then begin
        Bytes.blit entry.after 0 image (entry.block * t.block_size) t.block_size;
        applied.(entry.block) <- true
      end;
      apply older
  in
  apply t.journal;
  image

let block_content_at t ~time ~block =
  check_block t block;
  let rec find = function
    | [] -> Bytes.sub t.initial (block * t.block_size) t.block_size
    | entry :: older ->
      if entry.block = block && entry.when_ <= time then Bytes.copy entry.after
      else find older
  in
  find t.journal

let writes_between t t1 t2 =
  List.rev
    (List.filter_map
       (fun e -> if e.when_ > t1 && e.when_ <= t2 then Some (e.when_, e.block) else None)
       t.journal)
