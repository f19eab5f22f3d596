(** Packed occupancy bitmask over a fixed universe [0, capacity).

    This is the scan structure behind the data-oriented simulator core:
    the issue window keeps one bit per slot and the per-cycle dispatch
    sweep skips empty regions a word at a time instead of walking linked
    structures. Everything is preallocated at [create] and no operation
    allocates.

    Words hold 32 bits each so that index arithmetic is shifts and
    masks (not division) and the de Bruijn trailing-zero multiply below
    stays well inside OCaml's 63-bit native ints. *)

type t = { words : int array; capacity : int; mutable count : int }

let bits_per_word = 32
let word_shift = 5
let bit_mask = 31

let create capacity =
  if capacity <= 0 then invalid_arg "Bitset.create: capacity must be positive";
  let nwords = (capacity + bits_per_word - 1) / bits_per_word in
  { words = Array.make nwords 0; capacity; count = 0 }

let capacity t = t.capacity
let cardinal t = t.count
let is_empty t = t.count = 0

let[@inline] check t i name =
  if i < 0 || i >= t.capacity then invalid_arg name

let[@inline] mem t i =
  check t i "Bitset.mem";
  t.words.(i lsr word_shift) land (1 lsl (i land bit_mask)) <> 0

let[@inline] add t i =
  check t i "Bitset.add";
  let w = i lsr word_shift in
  let b = 1 lsl (i land bit_mask) in
  let old = t.words.(w) in
  if old land b = 0 then begin
    t.words.(w) <- old lor b;
    t.count <- t.count + 1
  end

let[@inline] remove t i =
  check t i "Bitset.remove";
  let w = i lsr word_shift in
  let b = 1 lsl (i land bit_mask) in
  let old = t.words.(w) in
  if old land b <> 0 then begin
    t.words.(w) <- old land lnot b;
    t.count <- t.count - 1
  end

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.count <- 0

(* Trailing-zero count of a 32-bit nonzero value via a de Bruijn
   sequence: isolate the lowest set bit, multiply, index a small table.
   The product is at most 2^31 * 2^27 < 2^59, comfortably a native int. *)
let debruijn_table =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let[@inline] ctz32 v =
  debruijn_table.(((v land -v) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* Scan words [w, nwords) for the first set bit; allocation-free. *)
let rec scan_words t w nwords =
  if w >= nwords then -1
  else
    let word = t.words.(w) in
    if word <> 0 then
      let r = (w lsl word_shift) + ctz32 word in
      if r < t.capacity then r else -1
    else scan_words t (w + 1) nwords

let next_set_from t i =
  if i >= t.capacity then -1
  else begin
    let i = if i < 0 then 0 else i in
    let w = i lsr word_shift in
    (* First word: mask off bits below [i]. *)
    let first = t.words.(w) land lnot ((1 lsl (i land bit_mask)) - 1) in
    if first <> 0 then begin
      let r = (w lsl word_shift) + ctz32 first in
      if r < t.capacity then r else -1
    end
    else scan_words t (w + 1) (Array.length t.words)
  end

(* [scan_words] over the word-wise union of [a] and [b]. *)
let rec scan_union_words a b w nwords =
  if w >= nwords then -1
  else
    let word = a.words.(w) lor b.words.(w) in
    if word <> 0 then
      let r = (w lsl word_shift) + ctz32 word in
      if r < a.capacity then r else -1
    else scan_union_words a b (w + 1) nwords

let next_set_from_union a b i =
  if a.capacity <> b.capacity then
    invalid_arg "Bitset.next_set_from_union: capacities differ";
  if i >= a.capacity then -1
  else begin
    let i = if i < 0 then 0 else i in
    let w = i lsr word_shift in
    let first =
      (a.words.(w) lor b.words.(w)) land lnot ((1 lsl (i land bit_mask)) - 1)
    in
    if first <> 0 then begin
      let r = (w lsl word_shift) + ctz32 first in
      if r < a.capacity then r else -1
    end
    else scan_union_words a b (w + 1) (Array.length a.words)
  end

let rec iter_from f t i =
  if i >= 0 then begin
    f i;
    iter_from f t (next_set_from t (i + 1))
  end

let iter f t = iter_from f t (next_set_from t 0)

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc
