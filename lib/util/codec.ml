exception Malformed of string

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let at_end r = r.pos >= String.length r.src

let need r n =
  if r.pos + n > String.length r.src then raise (Malformed "truncated input")

let write_varint buf n =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let read_varint r =
  let rec go shift acc =
    if shift > 62 then raise (Malformed "varint too long");
    need r 1;
    let b = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let read_string r =
  let n = read_varint r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let skip_prefix r s =
  let n = String.length s in
  let rec equal i = i >= n || (Char.equal r.src.[r.pos + i] s.[i] && equal (i + 1)) in
  if r.pos + n <= String.length r.src && equal 0 then begin
    r.pos <- r.pos + n;
    true
  end
  else false

let read_byte r =
  need r 1;
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let write_bool buf b = Buffer.add_char buf (if b then '\x01' else '\x00')

let read_bool r =
  need r 1;
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\x00' -> false
  | '\x01' -> true
  | _ -> raise (Malformed "bad bool")

let write_list buf enc xs =
  write_varint buf (List.length xs);
  List.iter (enc buf) xs

let read_list r dec =
  let n = read_varint r in
  List.init n (fun _ -> dec r)

let write_option buf enc = function
  | None -> write_bool buf false
  | Some x -> write_bool buf true; enc buf x

let read_option r dec = if read_bool r then Some (dec r) else None

let to_string enc x =
  let buf = Buffer.create 64 in
  enc buf x;
  Buffer.contents buf

let of_string dec s =
  let r = reader s in
  let x = dec r in
  if not (at_end r) then raise (Malformed "trailing bytes");
  x

type 'a codec = {
  encode : Buffer.t -> 'a -> unit;
  decode : reader -> 'a;
  size_bytes : 'a -> int;
}

let codec ?size_bytes ~encode ~decode () =
  let size_bytes =
    match size_bytes with
    | Some f -> f
    | None -> fun x -> String.length (to_string encode x)
  in
  { encode; decode; size_bytes }

let encode_to_string c x = to_string c.encode x
let decode_of_string c s = of_string c.decode s
