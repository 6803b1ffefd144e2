(* CRC-32/ISO-HDLC (the IEEE 802.3 / zlib polynomial), reflected form:
   polynomial 0xEDB88320, init 0xFFFFFFFF, final xor 0xFFFFFFFF. *)

let entry n =
  let c = ref n in
  for _ = 0 to 7 do
    if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
  done;
  !c

(* The 256 entries as 1 KiB of little-endian words, built at module
   initialisation. Frames are sealed inside Ra_parallel tasks, so domains
   read the table concurrently: it is an immutable string, never a lazy
   value, which raises CamlinternalLazy.Undefined when two domains force
   it for the first time at once. *)
let table =
  String.init 1024 (fun i ->
      Char.chr ((entry (i / 4) lsr (8 * (i land 3))) land 0xff))

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.update: slice out of bounds";
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for k = pos to pos + len - 1 do
    let i = (!crc lxor Char.code (Bytes.get b k)) land 0xff in
    let word = Int32.to_int (String.get_int32_le table (4 * i)) in
    crc := (word land 0xFFFFFFFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let digest payload = update 0 payload ~pos:0 ~len:(Bytes.length payload)
