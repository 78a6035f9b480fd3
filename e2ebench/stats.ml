(* Order statistics for the benchmark's reports. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an already sorted array: the smallest
   sample with at least [p]% of the samples at or below it.  Always a
   measured value, never an interpolation between two. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Median of floats, averaging the two middle samples of an even count. *)
let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the same rule as Python's [statistics.quantiles(xs,
   n=4)] (the default "exclusive" method), so spreads the benchmark
   prints agree with the ones computed from its results afterwards. *)
let quartiles a =
  let a = sorted a in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread a =
  let q1, q2, q3 = quartiles a in
  if q2 = 0. then 0. else (q3 -. q1) /. q2

(* A growable int array for samples collected at run time. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let to_array b = Array.sub b.a 0 b.n
end
