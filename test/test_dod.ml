(* Tests for the data-oriented simulator core's packed structures:
   - Sim's window bitmasks vs a naive sorted-list oracle (property-tested)
   - the limb-based Rng vs a reference Int64 SplitMix64 (bit-identical)
   - Freelist exhaustion/reuse
   - zero steady-state allocation over dense cycles (Gc.minor_words) *)

open Occamy_util
module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config

(* ------------------------------------------------------------------ *)
(* Reference SplitMix64 over boxed Int64 — the original [Rng] draws,
   kept as the oracle for the limb version. *)

module Ref_rng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  let next_int64 t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let float t =
    let bits = Int64.shift_right_logical (next_int64 t) 11 in
    Int64.to_float bits *. (1.0 /. 9007199254740992.0)

  let int t bound =
    if bound <= 0 then invalid_arg "bound";
    let r = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
    r mod bound

  let range t lo hi = lo + int t (hi - lo + 1)
  let bool t p = float t < p
end

let seeds =
  [ 0; 1; 42; 12345; -1; -987654321; max_int; min_int; 0x5851F42D; 1 lsl 40 ]

let test_rng_matches_reference () =
  List.iter
    (fun seed ->
      let r = Rng.create ~seed and o = Ref_rng.create ~seed in
      for i = 0 to 2999 do
        (* Interleave every operation kind so state stays in lockstep. *)
        match i mod 4 with
        | 0 ->
            let a = Rng.float r and b = Ref_rng.float o in
            if a <> b then
              Alcotest.failf "float diverged (seed %d, draw %d): %h vs %h" seed
                i a b
        | 1 ->
            Helpers.check_int "int draw" (Ref_rng.int o 1000) (Rng.int r 1000)
        | 2 ->
            Helpers.check_int "range draw"
              (Ref_rng.range o (-50) 50)
              (Rng.range r (-50) 50)
        | _ ->
            Helpers.check_bool "bool draw" (Ref_rng.bool o 0.3)
              (Rng.bool r 0.3)
      done)
    seeds

(* ------------------------------------------------------------------ *)
(* Sim's window bitmasks vs a sorted-list oracle. *)

module Bits = Sim.Bits

let oracle_next_from l i = match List.find_opt (fun x -> x >= i) l with
  | Some x -> x
  | None -> -1

(* Members in increasing order, read through [next_set_from]. *)
let members bs =
  let rec go acc i =
    let s = Bits.next_set_from bs i in
    if s < 0 then List.rev acc else go (s :: acc) (s + 1)
  in
  go [] 0

let check_same_view ~cap bs oracle =
  Helpers.check_bool "members" true (members bs = oracle);
  for i = 0 to cap - 1 do
    Helpers.check_bool "mem" (List.mem i oracle) (Bits.mem bs i)
  done;
  for i = 0 to cap do
    Helpers.check_int "next_set_from" (oracle_next_from oracle i)
      (Bits.next_set_from bs i)
  done

let test_bitset_oracle () =
  let rng = Rng.create ~seed:2024 in
  List.iter
    (fun cap ->
      let bs = Bits.create cap in
      let oracle = ref [] in
      for _ = 1 to 400 do
        let i = Rng.int rng cap in
        (match Rng.int rng 2 with
        | 0 ->
            Bits.add bs i;
            if not (List.mem i !oracle) then
              oracle := List.sort compare (i :: !oracle)
        | _ ->
            Bits.remove bs i;
            oracle := List.filter (fun x -> x <> i) !oracle);
        if Rng.bool rng 0.1 then check_same_view ~cap bs oracle.contents
      done;
      check_same_view ~cap bs !oracle)
    [ 1; 7; 31; 32; 33; 63; 64; 65; 96; 128; 200 ]

(* [next_set_from_union] against [next_set_from] on the merged list. *)
let test_bitset_union () =
  let rng = Rng.create ~seed:77 in
  List.iter
    (fun cap ->
      let a = Bits.create cap and b = Bits.create cap in
      let la = ref [] and lb = ref [] in
      for _ = 1 to 300 do
        let bs, l = if Rng.bool rng 0.5 then (a, la) else (b, lb) in
        let i = Rng.int rng cap in
        if Rng.bool rng 0.6 then begin
          Bits.add bs i;
          if not (List.mem i !l) then l := i :: !l
        end
        else begin
          Bits.remove bs i;
          l := List.filter (fun x -> x <> i) !l
        end;
        let union = List.sort_uniq compare (!la @ !lb) in
        for i = 0 to cap do
          Helpers.check_int "next_set_from_union" (oracle_next_from union i)
            (Bits.next_set_from_union a b i)
        done
      done)
    [ 1; 31; 32; 33; 64; 100 ]

let test_bitset_edges () =
  let bs = Bits.create 65 in
  Helpers.check_int "empty next" (-1) (Bits.next_set_from bs 0);
  Bits.add bs 64;
  Helpers.check_int "last bit" 64 (Bits.next_set_from bs 0);
  Helpers.check_int "from last" 64 (Bits.next_set_from bs 64);
  Helpers.check_int "past last" (-1) (Bits.next_set_from bs 65);
  Helpers.check_int "past the last word" (-1) (Bits.next_set_from bs 96);
  Bits.add bs 64;
  Helpers.check_bool "idempotent add" true (members bs = [ 64 ]);
  Bits.remove bs 3;
  Helpers.check_bool "idempotent remove" true (members bs = [ 64 ]);
  Bits.add bs 31;
  Bits.add bs 32;
  Helpers.check_bool "word boundary" true (members bs = [ 31; 32; 64 ]);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Sim.Bits.create: capacity must be positive") (fun () ->
      ignore (Bits.create 0))

(* ------------------------------------------------------------------ *)
(* Freelist exhaustion and reuse. *)

let test_freelist_exhaustion_reuse () =
  let module F = Occamy_coproc.Freelist in
  let f = F.create ~depth:8 ~pinned:3 in
  Helpers.check_int "capacity" 5 (F.free f);
  for i = 1 to 5 do
    Helpers.check_bool "alloc ok" true (F.alloc f);
    Helpers.check_int "free" (5 - i) (F.free f)
  done;
  Helpers.check_bool "exhausted" false (F.alloc f);
  Helpers.check_bool "exhausted again" false (F.alloc f);
  F.release f;
  Helpers.check_int "freed one" 1 (F.free f);
  Helpers.check_bool "reuse after release" true (F.alloc f);
  Helpers.check_bool "full again" false (F.alloc f);
  for _ = 1 to 5 do
    F.release f
  done;
  Helpers.check_int "all released" 5 (F.free f);
  Helpers.check_bool "reusable after draining" true (F.alloc f)

(* ------------------------------------------------------------------ *)
(* Zero allocation in steady state: drive the dense motivating pair
   core-by-core with [Sim.step] and assert that some full 1000-cycle
   chunk allocates nothing at all. Rare events (phase boundaries,
   reconfiguration, trace-episode bookkeeping) may allocate, so the
   assertion is on the minimum chunk delta, which the dense steady
   state must bring to exactly zero. With a profiler attached, every
   32nd cycle also reads the clock and credits stage time, which must
   not allocate either. *)

let check_zero_alloc ?prof label =
  let wls = Occamy_workloads.Motivating.pair () in
  let sim = Sim.create ?prof ~arch:Arch.Occamy wls in
  (* One cycle as [Sim.run] drives it: the step, then the profiler's
     end-of-cycle credit (a no-op when none is attached). *)
  let step () =
    Sim.step sim;
    Occamy_obs.Prof.end_cycle (Sim.prof sim)
  in
  (* Warm up past compilation/startup transients. *)
  for _ = 1 to 2000 do step () done;
  let min_delta = ref infinity in
  for _chunk = 1 to 10 do
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do step () done;
    let delta = Gc.minor_words () -. before in
    if delta < !min_delta then min_delta := delta
  done;
  if !min_delta <> 0.0 then
    Alcotest.failf
      "dense steady state allocates%s: best 1000-cycle chunk = %.0f minor \
       words"
      label !min_delta

(* The same for the fast-forwarding loop across periodic stretches:
   drive [Sim.advance] (a step, then the fast-forward attempt) through a
   vector loop repeated by an outer loop, so one run takes a periodic
   jump per repetition with no phase change in between. The first jump
   sizes the recording buffers; from there to the last jump, every
   detection lookup, hash, snapshot, recorded period, replay and state
   shift must allocate nothing. The loop's period is 27 cycles and each
   jump spans 9-10 of them, so every jump also adds its periods 2..k in
   closed form (RNG skip, channel and counter deltas, lane buckets). *)
let check_zero_alloc_periodic ?prof label =
  let loop = Occamy_workloads.Motivating.wsm5_loop ~tc:4096 in
  let wl =
    Occamy_compiler.Codegen.compile_workload ~name:"repeated"
      ~kind:Occamy_core.Workload.Compute_intensive
      [ { loop with Occamy_compiler.Loop_ir.outer_reps = 5 } ]
  in
  let cfg = { Config.default with Config.cores = 1 } in
  let sim = Sim.create ~cfg ?prof ~arch:Arch.Private [ wl ] in
  while (not (Sim.finished sim)) && Sim.periodic_jumps sim = 0 do
    Sim.advance sim
  done;
  let before = Gc.minor_words () in
  let last = ref before in
  let first = Sim.periodic_jumps sim in
  while not (Sim.finished sim) do
    let jumps = Sim.periodic_jumps sim in
    Sim.advance sim;
    if Sim.periodic_jumps sim > jumps then last := Gc.minor_words ()
  done;
  Helpers.check_bool
    (Printf.sprintf "several periodic jumps after the first%s" label)
    true
    (Sim.periodic_jumps sim >= first + 3);
  Helpers.check_bool
    (Printf.sprintf "jumps span several periods%s" label)
    true
    (Sim.periodic_skipped_cycles sim / Sim.periodic_jumps sim >= 200);
  if !last -. before <> 0.0 then
    Alcotest.failf
      "periodic fast-forward allocates%s: %.0f minor words from the first \
       jump to the last"
      label (!last -. before)

let test_zero_alloc_steady_state () =
  check_zero_alloc "";
  check_zero_alloc_periodic "";
  let prof = Occamy_obs.Prof.create () in
  check_zero_alloc ~prof " with a profiler attached";
  check_zero_alloc_periodic ~prof " with a profiler attached";
  if Occamy_obs.Prof.sampled_cycles prof = 0 then
    Alcotest.fail "the profiler sampled no cycle"

let suites =
  [
    ( "dod",
      [
        Alcotest.test_case "rng matches int64 reference" `Quick
          test_rng_matches_reference;
        Alcotest.test_case "bitset vs list oracle" `Quick test_bitset_oracle;
        Alcotest.test_case "bitset edges" `Quick test_bitset_edges;
        Alcotest.test_case "bitset union scan" `Quick test_bitset_union;
        Alcotest.test_case "freelist exhaustion/reuse" `Quick
          test_freelist_exhaustion_reuse;
        Alcotest.test_case "zero-alloc steady state" `Quick
          test_zero_alloc_steady_state;
      ] );
  ]
