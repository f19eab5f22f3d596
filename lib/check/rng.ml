(** The fuzzer's generator is the simulator's: {!Occamy_util.Rng}, kept
    reachable under this name for callers outside the library. *)

include Occamy_util.Rng
