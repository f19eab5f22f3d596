(* Explore the vector-length-aware roofline model (§5.1) and the greedy
   lane-partitioning algorithm (§5.2): how the lane manager decides who
   gets how many ExeBUs.

     dune exec examples/roofline_explorer.exe
*)

module Roofline = Occamy_lanemgr.Roofline
module Partition = Occamy_lanemgr.Partition
module Lane_mgr = Occamy_lanemgr.Lane_mgr
module Oi = Occamy_isa.Oi
module Level = Occamy_mem.Level
module Table = Occamy_util.Table

let cfg = Roofline.default_cfg

let show_roofline name oi level =
  let tbl =
    Table.create
      ~title:(Fmt.str "%s: oi=%a at %s" name Oi.pp oi (Level.name level))
      ~header:[ "lanes"; "AP (flops/cycle)"; "binding ceiling" ]
      ()
  in
  List.iter
    (fun vl ->
      Table.add_row tbl
        [
          Table.icell (4 * vl);
          Table.fcell (Roofline.attainable cfg ~vl ~oi ~level);
          Roofline.bound_name (Roofline.binding cfg ~vl ~oi ~level);
        ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Table.print tbl;
  Fmt.pr "  -> saturates at %d lanes@.@."
    (4 * Roofline.saturation_vl cfg ~max_vl:8 ~oi ~level)

let show_partition name workloads =
  let plan = Partition.plan cfg ~total:8 workloads in
  Fmt.pr "%s:@." name;
  List.iter
    (fun (key, vl) -> Fmt.pr "  workload %d -> %d lanes@." key (4 * vl))
    plan;
  Fmt.pr "@."

let () =
  (* The three behaviours of Table 5 / Figure 7. *)
  show_roofline "streaming copy (memory-bound)" (Oi.uniform 0.08) Level.Dram;
  show_roofline "WL8.p1 with data reuse (Case 4)"
    (Oi.make ~issue:(1.0 /. 6.0) ~mem:0.25)
    Level.L2;
  show_roofline "dense compute" (Oi.uniform 2.0) Level.Vec_cache;

  (* Partitioning scenarios of §5.2. *)
  let wl key oi level = { Partition.key; oi; level } in
  show_partition "memory + compute (the common case)"
    [ wl 0 (Oi.uniform 0.13) Level.L2; wl 1 (Oi.uniform 2.0) Level.Vec_cache ];
  show_partition "two compute-intensive workloads (fair split)"
    [ wl 0 (Oi.uniform 2.0) Level.Vec_cache; wl 1 (Oi.uniform 2.0) Level.Vec_cache ];
  show_partition "reuse kernel needs issue bandwidth (Case 4)"
    [
      wl 0 (Oi.make ~issue:(1.0 /. 6.0) ~mem:0.25) Level.L2;
      wl 1 (Oi.uniform 2.0) Level.Vec_cache;
    ];

  (* The lane manager reacting to phase events, as in Figure 8. *)
  let mgr = Lane_mgr.create ~total:8 ~cores:2 () in
  let show msg =
    Fmt.pr "%-46s decisions: core0=%d lanes, core1=%d lanes@." msg
      (4 * (Lane_mgr.decisions mgr).(0))
      (4 * (Lane_mgr.decisions mgr).(1))
  in
  Fmt.pr "Eager-lazy partitioning timeline (Figure 8):@.";
  Lane_mgr.enter_phase mgr ~core:1 ~oi:(Oi.uniform 2.0) ~level:Level.Vec_cache;
  show "WL#1 enters its compute phase (alone)";
  Lane_mgr.enter_phase mgr ~core:0 ~oi:(Oi.uniform 0.10) ~level:Level.L2;
  show "WL#0 enters a memory-intensive phase";
  Lane_mgr.enter_phase mgr ~core:0 ~oi:(Oi.uniform 0.30) ~level:Level.L2;
  show "WL#0 moves to a denser phase";
  Lane_mgr.exit_phase mgr ~core:0;
  show "WL#0 finishes (lanes released)"
