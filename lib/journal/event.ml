type value = I of int | S of string | B of Bytes.t

type t = { tag : string; fields : (string * value) list }

let make tag fields = { tag; fields }

let max_fields = 4096

let encode e =
  let w = Codec.writer () in
  Codec.str w e.tag;
  Codec.i64 w (List.length e.fields);
  List.iter
    (fun (k, v) ->
      Codec.str w k;
      match v with
      | I n ->
          Codec.u8 w 0;
          Codec.i64 w n
      | S s ->
          Codec.u8 w 1;
          Codec.str w s
      | B b ->
          Codec.u8 w 2;
          Codec.bytes w b)
    e.fields;
  Codec.contents w

let decode buf =
  match
    let r = Codec.reader buf in
    let tag = Codec.read_str r in
    let n = Codec.read_i64 r in
    if n < 0 || n > max_fields then Codec.fail "implausible field count";
    let fields =
      List.init n (fun _ ->
          let k = Codec.read_str r in
          let v =
            match Codec.read_u8 r with
            | 0 -> I (Codec.read_i64 r)
            | 1 -> S (Codec.read_str r)
            | 2 -> B (Codec.read_bytes r)
            | t -> Codec.fail (Printf.sprintf "unknown field type %d" t)
          in
          (k, v))
    in
    Codec.expect_end r;
    { tag; fields }
  with
  | e -> Ok e
  | exception Codec.Corrupt msg -> Error msg

(* (=) is structural on Bytes.t, so this compares blob contents. *)
let equal a b = a = b

let to_string e =
  let field (k, v) =
    match v with
    | I n -> Printf.sprintf "%s=%d" k n
    | S s -> Printf.sprintf "%s=%S" k s
    | B b ->
        Printf.sprintf "%s=<%dB crc %08x>" k (Bytes.length b)
          (Ra_crypto.Crc32.digest b)
  in
  Printf.sprintf "%s{%s}" e.tag (String.concat " " (List.map field e.fields))

let find e k = List.assoc_opt k e.fields

let find_i e k = match find e k with Some (I n) -> Some n | _ -> None

let find_s e k = match find e k with Some (S s) -> Some s | _ -> None

let missing e k ty =
  Codec.fail (Printf.sprintf "event %s: missing %s field %S" e.tag ty k)

let geti e k = match find e k with Some (I n) -> n | _ -> missing e k "int"

let getb e k = match find e k with Some (B b) -> b | _ -> missing e k "bytes"
