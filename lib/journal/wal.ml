open Ra_crypto

let header_len = 10 (* magic 2 + seq 4 + len 4 *)

let max_payload = 1 lsl 30

let encode ~seq payload =
  let n = Bytes.length payload in
  if n > max_payload then invalid_arg "Wal.encode: payload too large";
  let b = Bytes.create (header_len + n + 4) in
  Bytes.set b 0 'R';
  Bytes.set b 1 'J';
  Bytesutil.store32_be b 2 seq;
  Bytesutil.store32_be b 6 n;
  Bytes.blit payload 0 b header_len n;
  let crc = Crc32.update 0 b ~pos:0 ~len:(header_len + n) in
  Bytesutil.store32_be b (header_len + n) crc;
  b

type scan = {
  records : Bytes.t list;
  offsets : int array;
  good_bytes : int;
  damage : string option;
}

let scan ?(first_seq = 1) buf =
  let len = Bytes.length buf in
  let records = ref [] in
  let offsets = ref [] in
  let pos = ref 0 in
  let seq = ref first_seq in
  let damage = ref None in
  let stop msg = damage := Some msg in
  while !damage = None && !pos < len do
    let p = !pos in
    if len - p < header_len + 4 then
      stop (Printf.sprintf "torn record header at offset %d" p)
    else if Bytes.get buf p <> 'R' || Bytes.get buf (p + 1) <> 'J' then
      stop (Printf.sprintf "bad magic at offset %d" p)
    else begin
      let rseq = Bytesutil.load32_be buf (p + 2) in
      let n = Bytesutil.load32_be buf (p + 6) in
      if n > max_payload then
        stop (Printf.sprintf "implausible record length %d at offset %d" n p)
      else if len - p < header_len + n + 4 then
        stop (Printf.sprintf "torn record body at offset %d" p)
      else begin
        let crc = Crc32.update 0 buf ~pos:p ~len:(header_len + n) in
        let stored = Bytesutil.load32_be buf (p + header_len + n) in
        if crc <> stored then
          stop (Printf.sprintf "CRC mismatch at offset %d" p)
        else if rseq <> !seq land 0xffffffff then
          stop
            (Printf.sprintf
               "sequence break at offset %d: expected %d, found %d \
                (duplicated or reordered tail)"
               p !seq rseq)
        else begin
          records := Bytes.sub buf (p + header_len) n :: !records;
          pos := p + header_len + n + 4;
          offsets := !pos :: !offsets;
          incr seq
        end
      end
    end
  done;
  {
    records = List.rev !records;
    offsets = Array.of_list (List.rev !offsets);
    good_bytes = !pos;
    damage = !damage;
  }
