(* Exact order statistics over full sample arrays.  [Glassdb_util.Stats]
   spills past 8192 samples into log buckets (up to ~9.1% error), which is
   wider than this benchmark's bounds, so percentiles here always sort. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array, with the number of samples
   strictly beyond its rank. *)
let percentile_sorted s q =
  let n = Array.length s in
  if n = 0 then (0., 0)
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    (s.(rank - 1), n - rank)
  end

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
