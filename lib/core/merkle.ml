(* Complete binary tree in an array: nodes.(1) is the root and node i has
   children 2i and 2i+1; leaves occupy [size, 2*size). The leaf count is
   padded to a power of two with empty-content sentinels. *)

type t = {
  hash : Ra_crypto.Algo.hash;
  size : int; (* padded power-of-two leaf count *)
  real_leaves : int;
  nodes : Bytes.t array;
}

(* ralint: allow P2 — domain-separation prefixes; only ever read (passed
   to Bytes.concat), never written. *)
let leaf_prefix = Bytes.of_string "\x00"
let node_prefix = Bytes.of_string "\x01"

let leaf_digest hash ~index ~content =
  let ib = Bytes.create 4 in
  Ra_crypto.Bytesutil.store32_be ib 0 index;
  Ra_crypto.Algo.digest hash (Bytes.concat Bytes.empty [ leaf_prefix; ib; content ])

let node_digest hash left right =
  Ra_crypto.Algo.digest hash (Bytes.concat Bytes.empty [ node_prefix; left; right ])

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let build hash ~leaves =
  let real_leaves = Array.length leaves in
  if real_leaves = 0 then invalid_arg "Merkle.build: no leaves";
  let size = next_pow2 real_leaves 1 in
  let t = { hash; size; real_leaves; nodes = Array.make (2 * size) Bytes.empty } in
  for i = 0 to size - 1 do
    let content = if i < real_leaves then leaves.(i) else Bytes.empty in
    t.nodes.(size + i) <- leaf_digest hash ~index:i ~content
  done;
  for i = size - 1 downto 1 do
    t.nodes.(i) <- node_digest hash t.nodes.(2 * i) t.nodes.((2 * i) + 1)
  done;
  t

(* Root-only construction: one scratch level of digests, folded in place
   level by level, so aggregating a million leaves allocates O(leaves)
   digests instead of retaining a 2x node array for updates/proofs it
   will never serve. Bit-identical to [root (build hash ~leaves)]. *)
let root_of_leaves hash ~leaves =
  let real_leaves = Array.length leaves in
  if real_leaves = 0 then invalid_arg "Merkle.root_of_leaves: no leaves";
  let size = next_pow2 real_leaves 1 in
  let level =
    Array.init size (fun i ->
        let content = if i < real_leaves then leaves.(i) else Bytes.empty in
        leaf_digest hash ~index:i ~content)
  in
  let width = ref size in
  while !width > 1 do
    let w = !width / 2 in
    for i = 0 to w - 1 do
      level.(i) <- node_digest hash level.(2 * i) level.((2 * i) + 1)
    done;
    width := w
  done;
  level.(0)

let of_memory hash memory =
  build hash
    ~leaves:
      (Array.init (Ra_device.Memory.block_count memory) (fun i ->
           Ra_device.Memory.read_block memory i))

let leaf_count t = t.real_leaves

let root t = t.nodes.(1)

let check_index t index =
  if index < 0 || index >= t.real_leaves then invalid_arg "Merkle: index out of range"

let update t ~index ~content =
  check_index t index;
  let node = ref (t.size + index) in
  t.nodes.(!node) <- leaf_digest t.hash ~index ~content;
  while !node > 1 do
    node := !node / 2;
    t.nodes.(!node) <- node_digest t.hash t.nodes.(2 * !node) t.nodes.((2 * !node) + 1)
  done

let proof t ~index =
  check_index t index;
  let rec collect node acc =
    if node <= 1 then List.rev acc
    else collect (node / 2) (t.nodes.(node lxor 1) :: acc)
  in
  collect (t.size + index) []

let verify_proof hash ~root:expected ~index ~content ~leaf_count ~proof =
  if index < 0 || index >= leaf_count then false
  else begin
    let size = next_pow2 leaf_count 1 in
    let rec climb node acc = function
      | [] -> node = 1 && Ra_crypto.Bytesutil.constant_time_equal acc expected
      | sibling :: rest ->
        let parent = node / 2 in
        let combined =
          if node land 1 = 0 then node_digest hash acc sibling
          else node_digest hash sibling acc
        in
        climb parent combined rest
    in
    climb (size + index) (leaf_digest hash ~index ~content) proof
  end
