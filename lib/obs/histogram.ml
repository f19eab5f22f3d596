(* Log-bucketed histogram: exact single-value buckets below
   [2 * 2^sub_bits], then [2^sub_bits] linear sub-buckets per octave.
   For a value with most-significant bit [e >= sub_bits] the bucket is

     m + (e - sub_bits) * m + ((v lsr (e - sub_bits)) - m)      m = 2^sub_bits

   so every bucket in octave [e] spans [2^(e - sub_bits)] values and the
   quantization error relative to the bucket's lower bound is at most
   [1/m]. The layout is dense (an int array), recording is a handful of
   integer ops, and merging is element-wise addition. *)

type t = {
  sub_bits : int;
  m : int;  (* 2^sub_bits sub-buckets per octave *)
  max_value : int;
  counts : int array;
  mutable n : int;
  mutable overflow : int;
  sum : float array;
      (* [| sum |]: a mutable float field in this mixed record would box
         on every [add]; a float array cell does not *)
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

let bucket_of t v =
  if v < t.m then v
  else
    let e = msb v in
    let shift = e - t.sub_bits in
    t.m + (shift * t.m) + ((v lsr shift) - t.m)

(* Inverse of [bucket_of]: inclusive value range of bucket [i]. *)
let bounds_of t i =
  if i < t.m then (i, i)
  else
    let d = i - t.m in
    let shift = d / t.m in
    let off = d mod t.m in
    let lo = (t.m + off) lsl shift in
    (lo, lo + (1 lsl shift) - 1)

let num_buckets t =
  (* Highest bucket index is [bucket_of max_value]; sizes stay small
     (sub_bits 5 over the full int range is ~1.9k buckets). *)
  bucket_of t t.max_value + 1

let create ?(sub_bits = 5) ?(max_value = max_int) () =
  if sub_bits < 1 || sub_bits > 16 then
    invalid_arg "Histogram.create: sub_bits must be in 1..16";
  if max_value <= 0 then
    invalid_arg "Histogram.create: max_value must be positive";
  let proto =
    {
      sub_bits;
      m = 1 lsl sub_bits;
      max_value;
      counts = [||];
      n = 0;
      overflow = 0;
      sum = [| 0.0 |];
      min_v = max_int;
      max_v = -1;
    }
  in
  { proto with counts = Array.make (num_buckets proto) 0 }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0;
  t.overflow <- 0;
  t.sum.(0) <- 0.0;
  t.min_v <- max_int;
  t.max_v <- -1

let add_n t v ~count =
  if count < 0 then invalid_arg "Histogram.add_n: negative count";
  if count > 0 then begin
    if v < 0 then invalid_arg "Histogram.add: negative value";
    let v =
      if v > t.max_value then begin
        t.overflow <- t.overflow + count;
        t.max_value
      end
      else v
    in
    let b = bucket_of t v in
    t.counts.(b) <- t.counts.(b) + count;
    t.n <- t.n + count;
    t.sum.(0) <- t.sum.(0) +. (float_of_int v *. float_of_int count);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let add t v = add_n t v ~count:1

let count t = t.n
let zeros t = t.counts.(0)
let overflow t = t.overflow
let sum t = t.sum.(0)
let mean t = if t.n = 0 then 0.0 else t.sum.(0) /. float_of_int t.n
let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = if t.n = 0 then 0 else t.max_v
let is_empty t = t.n = 0
let sub_bits t = t.sub_bits

let percentile t p =
  if Float.is_nan p then invalid_arg "Histogram.percentile: NaN";
  if t.n = 0 then 0
  else if p <= 0.0 then min_value t
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
        let _, hi = bounds_of t !i in
        (* Never report beyond the tracked extremes. *)
        res := min hi t.max_v;
        continue_ := false
      end;
      incr i
    done;
    !res
  end

let buckets t =
  let out = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bounds_of t i in
      out := (lo, hi, t.counts.(i)) :: !out
    end
  done;
  !out

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "empty"
  else
    Format.fprintf ppf "n=%d mean=%.0f p50=%d p90=%d p99=%d max=%d" t.n
      (mean t) (percentile t 50.0) (percentile t 90.0) (percentile t 99.0)
      (max_value t)
