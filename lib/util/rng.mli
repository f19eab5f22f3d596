(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component draws from an explicitly seeded generator
    so that experiments are reproducible run-to-run and independent
    simulations never share hidden state: the simulator's memory-level
    draws, workload data, and the differential fuzzer, whose every case
    is a replayable integer seed ({!case_seed}). *)

type t

val create : seed:int -> t
(** A fresh generator. Equal seeds yield equal streams. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bits53 : t -> int
(** The draw behind {!float}, as its exact 53-bit integer:
    [float t = float_of_int (bits53 t) *. 2^-53]. Lets allocation-free
    callers keep the float math on their own side of the module boundary
    (a float return boxes at any non-inlined call). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] on a
    non-positive bound. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [lo, hi] inclusive. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element; raises on an empty array. *)

val choose : t -> (int * 'a) list -> 'a
(** Pick by positive integer weight; raises on an empty or zero-weight
    list. *)

val case_seed : seed:int -> int -> int
(** [case_seed ~seed i] is the non-negative replay seed of the [i]-th
    fuzz case under root seed [seed] — a pure mixing function, so case
    [i] can be re-run alone without generating cases [0..i-1]. *)

val mix3 : seed:int -> stream:int -> int -> int
(** Pure (stateless) 62-bit non-negative hash of a (seed, stream, index)
    triple: draw [i] never requires visiting draws [0..i-1], and
    distinct streams are independent. *)
