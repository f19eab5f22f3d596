(* Metamorphic relations: input changes that must leave chosen outputs
   exactly as they were.
   - Renumbering one core's arrays changes nothing. Co-running programs
     share no data, so a program's array ids are its own.
   - The architecture changes timing, never work: a pair moves the same
     total number of bytes through the hierarchy on all four archs. *)

module Arch = Occamy_core.Arch
module Metrics = Occamy_core.Metrics
module Workload = Occamy_core.Workload
module Instr = Occamy_isa.Instr
module Program = Occamy_isa.Program
module Invariant = Occamy_check.Invariant
module Suite = Occamy_workloads.Suite

let compile label = Suite.compile_pair (Option.get (Suite.find_pair label))

(* The workload with its array ids reversed, in the code, the array
   declarations and the profiles alike. *)
let reverse_array_ids (wl : Workload.t) =
  let n = Array.length wl.Workload.profiles in
  let f a = n - 1 - a in
  let instr = function
    | Instr.Vload r -> Instr.Vload { r with arr = f r.arr }
    | Instr.Vstore r -> Instr.Vstore { r with arr = f r.arr }
    | Instr.Flw r -> Instr.Flw { r with arr = f r.arr }
    | Instr.Fsw r -> Instr.Fsw { r with arr = f r.arr }
    | i -> i
  in
  let p = wl.Workload.program in
  let arrays =
    Array.map (fun d -> { d with Program.arr_id = f d.Program.arr_id }) p.arrays
  in
  Array.sort (fun a b -> compare a.Program.arr_id b.Program.arr_id) arrays;
  {
    wl with
    Workload.program = { p with Program.code = Array.map instr p.code; arrays };
    profiles = Array.init n (fun a -> wl.Workload.profiles.(f a));
  }

(* Both programs of 4+14 and of 11+5 number their arrays from 0. Each
   run is also a naive = fast-forward input, and the pairs take
   periodic jumps on the archs listed. *)
let test_renumbered_array_ids () =
  List.iter
    (fun (pair, periodic) ->
      let wls = compile pair in
      let renumbered =
        List.mapi (fun i wl -> if i = 1 then reverse_array_ids wl else wl) wls
      in
      List.iter
        (fun arch ->
          let run tag wls =
            let m = ref None in
            let t =
              Test_fastforward.run_both ~label:(pair ^ tag) ~arch
                ~check:(fun r _ -> m := Some r)
                wls
            in
            if List.mem arch periodic then
              Test_fastforward.check_periodic
                (Printf.sprintf "%s%s/%s" pair tag (Arch.name arch))
                t;
            Option.get !m
          in
          let m = run "" wls and m' = run "-renumbered" renumbered in
          (* The whole record, so every counter derived from it too. *)
          match Invariant.check_equivalent m m' with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "%s/%s: renumbering core 1's arrays moved %s" pair
              (Arch.name arch) msg)
        Arch.all)
    [ ("4+14", [ Arch.Private; Arch.Vls ]); ("11+5", [ Arch.Occamy ]) ]

(* Each access is booked at exactly one level, so the sum over levels is
   the pair's vector-memory traffic, which its programs alone fix. *)
let test_same_bytes_every_arch () =
  List.iter
    (fun pair ->
      let wls = compile pair in
      let bytes arch =
        Metrics.total_mem_bytes (Occamy_core.Sim.simulate ~arch wls)
      in
      let want = bytes Arch.Private in
      Helpers.check_bool (pair ^ ": moves bytes") true (want > 0.0);
      List.iter
        (fun arch ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s/%s: bytes moved" pair (Arch.name arch))
            want (bytes arch))
        Arch.all)
    [ "1+13"; "4+14"; "11+5"; "9+4"; "21+17" ]

let suites =
  [
    ( "metamorphic",
      [
        Alcotest.test_case "renumbered array ids" `Quick
          test_renumbered_array_ids;
        Alcotest.test_case "same bytes on every arch" `Quick
          test_same_bytes_every_arch;
      ] );
  ]
