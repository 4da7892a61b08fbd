open Glassdb_util

type t = {
  mutable leaves : Hash.t array; (* leaf hashes *)
  mutable len : int;
  memo : (int, Hash.t) Hashtbl.t; (* perfect subtrees keyed by (lo<<31)|hi *)
}

let create () = { leaves = [||]; len = 0; memo = Hashtbl.create 256 }

let size t = t.len

let append t data =
  if Int.equal t.len (Array.length t.leaves) then begin
    let ncap = max 64 (2 * t.len) in
    let na = Array.make ncap Hash.empty in
    Array.blit t.leaves 0 na 0 t.len;
    t.leaves <- na
  end;
  t.leaves.(t.len) <- Hash.leaf data;
  t.len <- t.len + 1;
  t.len - 1

(* Largest power of two strictly less than n (n >= 2). *)
let split_point n =
  let k = ref 1 in
  while !k * 2 < n do k := !k * 2 done;
  !k

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec subtree t lo hi =
  let n = hi - lo in
  if n = 0 then Hash.empty
  else if n = 1 then t.leaves.(lo)
  else begin
    let key = (lo lsl 31) lor hi in
    let stable = is_pow2 n in
    match if stable then Hashtbl.find_opt t.memo key else None with
    | Some h -> h
    | None ->
      let k = split_point n in
      let h = Hash.interior (subtree t lo (lo + k)) (subtree t (lo + k) hi) in
      if stable then Hashtbl.replace t.memo key h;
      h
  end

let root_at t n =
  if n < 0 || n > t.len then invalid_arg "Merkle_log.root_at";
  subtree t 0 n

let root t = root_at t t.len

type proof = Hash.t list

let proof_size_bytes p = List.length p * Hash.size + 4

let encode_proof buf p = Codec.write_list buf Codec.write_string p
let decode_proof r = Codec.read_list r Codec.read_string

let inclusion_proof t ~index ~size =
  if index < 0 || index >= size || size > t.len then
    invalid_arg "Merkle_log.inclusion_proof";
  (* PATH(m, D[lo:hi]), siblings from leaf to root. *)
  let rec path m lo hi =
    if hi - lo = 1 then []
    else begin
      let k = split_point (hi - lo) in
      if m < lo + k then path m lo (lo + k) @ [ subtree t (lo + k) hi ]
      else path m (lo + k) hi @ [ subtree t lo (lo + k) ]
    end
  in
  path index 0 size

let verify_inclusion ~root ~size ~index ~leaf proof =
  if index < 0 || index >= size then false
  else begin
    (* RFC 6962 2.1.3.2: fold the path guided by the index bits, tracking the
       position within a possibly incomplete tree. *)
    let fn = ref index and sn = ref (size - 1) in
    let r = ref (Hash.leaf leaf) in
    let ok = ref true in
    List.iter
      (fun c ->
        if !sn = 0 then ok := false
        else begin
          if !fn land 1 = 1 || Int.equal !fn !sn then begin
            r := Hash.interior c !r;
            if !fn land 1 = 0 then
              while !fn <> 0 && !fn land 1 = 0 do
                fn := !fn lsr 1;
                sn := !sn lsr 1
              done
          end
          else r := Hash.interior !r c;
          fn := !fn lsr 1;
          sn := !sn lsr 1
        end)
      proof;
    !ok && !sn = 0 && Hash.equal !r root
  end

let consistency_proof t ~old_size ~new_size =
  if old_size < 0 || old_size > new_size || new_size > t.len then
    invalid_arg "Merkle_log.consistency_proof";
  if Int.equal old_size new_size || old_size = 0 then []
  else begin
    (* SUBPROOF(m, D[lo:hi], b) from RFC 6962 2.1.4.1. *)
    let rec subproof m lo hi b =
      if Int.equal (lo + m) hi then if b then [] else [ subtree t lo hi ]
      else begin
        let k = split_point (hi - lo) in
        if m <= k then subproof m lo (lo + k) b @ [ subtree t (lo + k) hi ]
        else subproof (m - k) (lo + k) hi false @ [ subtree t lo (lo + k) ]
      end
    in
    subproof old_size 0 new_size true
  end

let verify_consistency ~old_root ~old_size ~new_root ~new_size proof =
  if old_size < 0 || old_size > new_size then false
  else if old_size = 0 then proof = [] && Hash.equal old_root Hash.empty
  else if Int.equal old_size new_size then
    proof = [] && Hash.equal old_root new_root
  else begin
    (* RFC 6962 2.1.4.2. *)
    let proof = if is_pow2 old_size then old_root :: proof else proof in
    match proof with
    | [] -> false
    | first :: rest ->
      let fn = ref (old_size - 1) and sn = ref (new_size - 1) in
      while !fn land 1 = 1 do
        fn := !fn lsr 1;
        sn := !sn lsr 1
      done;
      let fr = ref first and sr = ref first in
      let ok = ref true in
      List.iter
        (fun c ->
          if !sn = 0 then ok := false
          else begin
            if !fn land 1 = 1 || Int.equal !fn !sn then begin
              fr := Hash.interior c !fr;
              sr := Hash.interior c !sr;
              if !fn land 1 = 0 then
                while !fn <> 0 && !fn land 1 = 0 do
                  fn := !fn lsr 1;
                  sn := !sn lsr 1
                done
            end
            else sr := Hash.interior !sr c;
            fn := !fn lsr 1;
            sn := !sn lsr 1
          end)
        rest;
      !ok && Hash.equal !fr old_root && Hash.equal !sr new_root && !sn = 0
  end
