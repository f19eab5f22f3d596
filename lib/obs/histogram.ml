(* Log-bucketed histogram: exact single-value buckets below
   [2 * 2^sub_bits], then [2^sub_bits] linear sub-buckets per octave.
   For a value with most-significant bit [e >= sub_bits] the bucket is

     m + (e - sub_bits) * m + ((v lsr (e - sub_bits)) - m)      m = 2^sub_bits

   so every bucket in octave [e] spans [2^(e - sub_bits)] values and the
   quantization error relative to the bucket's lower bound is at most
   [1/m]. The layout is dense (an int array) and recording is a handful
   of integer ops. *)

let sub_bits = 5
let m = 1 lsl sub_bits  (* sub-buckets per octave *)

type t = {
  counts : int array;
  mutable n : int;
  mutable min_v : int;  (* max_int when empty *)
  mutable max_v : int;  (* -1 when empty *)
}

let msb v =
  (* Position of the highest set bit; [v >= 1]. *)
  let e = ref 0 in
  let x = ref v in
  if !x lsr 32 > 0 then begin e := !e + 32; x := !x lsr 32 end;
  if !x lsr 16 > 0 then begin e := !e + 16; x := !x lsr 16 end;
  if !x lsr 8 > 0 then begin e := !e + 8; x := !x lsr 8 end;
  if !x lsr 4 > 0 then begin e := !e + 4; x := !x lsr 4 end;
  if !x lsr 2 > 0 then begin e := !e + 2; x := !x lsr 2 end;
  if !x lsr 1 > 0 then incr e;
  !e

let bucket_of v =
  if v < m then v
  else
    let e = msb v in
    let shift = e - sub_bits in
    m + (shift * m) + ((v lsr shift) - m)

(* Inverse of [bucket_of]: inclusive value range of bucket [i]. *)
let bounds_of i =
  if i < m then (i, i)
  else
    let d = i - m in
    let shift = d / m in
    let off = d mod m in
    let lo = (m + off) lsl shift in
    (lo, lo + (1 lsl shift) - 1)

(* The highest bucket is [max_int]'s: ~1.9k buckets. *)
let create () =
  { counts = Array.make (bucket_of max_int + 1) 0; n = 0; min_v = max_int;
    max_v = -1 }

let add t v =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let max_value t = if t.n = 0 then 0 else t.max_v
let is_empty t = t.n = 0

let percentile t p =
  if Float.is_nan p then invalid_arg "Histogram.percentile: NaN";
  if t.n = 0 then 0
  else if p <= 0.0 then t.min_v
  else if p >= 100.0 then max_value t
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let acc = ref 0 in
    let i = ref 0 in
    let res = ref (max_value t) in
    let continue_ = ref true in
    while !continue_ && !i < Array.length t.counts do
      acc := !acc + t.counts.(!i);
      if !acc >= rank then begin
        let _, hi = bounds_of !i in
        (* Never report beyond the tracked extremes. *)
        res := min hi t.max_v;
        continue_ := false
      end;
      incr i
    done;
    !res
  end
