(** CSV export of the figure data, for external plotting: the
    per-1000-cycle timelines (Figures 2(b-e), 14(b)), the per-pair
    speedup/utilization series (Figures 10, 11, 13), and the Table 3
    cross-check. *)

module Arch = Occamy_core.Arch
module Metrics = Occamy_core.Metrics

let buf_csv rows =
  let b = Buffer.create 4096 in
  List.iter
    (fun cells ->
      Buffer.add_string b (String.concat "," cells);
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

(** One row per (bucket, core): busy lanes and held lanes over time. *)
let timeline_csv (r : Metrics.t) =
  let rows = ref [ [ "kcycle"; "core"; "busy_lanes"; "held_lanes" ] ] in
  Array.iter
    (fun c ->
      let n =
        max
          (Array.length c.Metrics.lanes_timeline)
          (Array.length c.Metrics.vl_timeline)
      in
      for i = 0 to n - 1 do
        let get a = if i < Array.length a then a.(i) else 0.0 in
        rows :=
          [
            string_of_int i;
            string_of_int c.Metrics.core;
            Printf.sprintf "%.2f" (get c.Metrics.lanes_timeline);
            Printf.sprintf "%.2f" (4.0 *. get c.Metrics.vl_timeline);
          ]
          :: !rows
      done)
    r.Metrics.cores;
  buf_csv (List.rev !rows)

(** One row per pair: speedups, utilizations and FTS stall fractions —
    the Figure 10/11/13 series. *)
let pairs_csv (t : Fig10.t) =
  let header =
    [
      "pair"; "fts_s1"; "vls_s1"; "occamy_s1"; "fts_s0"; "vls_s0"; "occamy_s0";
      "util_private"; "util_fts"; "util_vls"; "util_occamy"; "fts_stall_c0";
      "fts_stall_c1";
    ]
  in
  let f = Printf.sprintf "%.4f" in
  let rows =
    List.map
      (fun r ->
        [
          r.Pair_run.pair.Occamy_workloads.Suite.label;
          f (Pair_run.speedup r Arch.Fts ~core:1);
          f (Pair_run.speedup r Arch.Vls ~core:1);
          f (Pair_run.speedup r Arch.Occamy ~core:1);
          f (Pair_run.speedup r Arch.Fts ~core:0);
          f (Pair_run.speedup r Arch.Vls ~core:0);
          f (Pair_run.speedup r Arch.Occamy ~core:0);
          f (Pair_run.util r Arch.Private);
          f (Pair_run.util r Arch.Fts);
          f (Pair_run.util r Arch.Vls);
          f (Pair_run.util r Arch.Occamy);
          f (Pair_run.fts_stall_fraction r ~core:0);
          f (Pair_run.fts_stall_fraction r ~core:1);
        ])
      t.Fig10.runs
  in
  buf_csv (header :: rows)

(** One row per (arch, core, bucket): the top-down cycle-accounting
    breakdown of the motivating pair, for stacked-bar plots. *)
let attrib_csv () =
  let rows = ref [ [ "arch"; "core"; "bucket"; "cycles"; "share_pct" ] ] in
  List.iter
    (fun arch ->
      let r = Attrib_run.run_pair ~arch () in
      let a = r.Attrib_run.ar_attrib in
      for core = 0 to Occamy_obs.Attrib.cores a - 1 do
        List.iter
          (fun b ->
            rows :=
              [
                Arch.name arch;
                string_of_int core;
                Occamy_obs.Attrib.name b;
                string_of_int (Occamy_obs.Attrib.count a ~core b);
                Printf.sprintf "%.2f" (Occamy_obs.Attrib.share a ~core b);
              ]
              :: !rows)
          Occamy_obs.Attrib.all
      done)
    Arch.all;
  buf_csv (List.rev !rows)

let table3_csv () =
  let rows =
    List.map
      (fun (wl, phase, paper, got) ->
        [ wl; phase; Printf.sprintf "%.4f" paper; Printf.sprintf "%.4f" got ])
      (Occamy_workloads.Suite.table3_rows ())
  in
  buf_csv ([ "workload"; "phase"; "paper_oi"; "analysed_oi" ] :: rows)

(** Write the full figure-data set into [dir] (created if missing):
    `fig2_<arch>.csv`, `pairs.csv`, `table3.csv`, `attrib.csv`. Returns
    the file names. *)
let write_all ~dir ?tc_scale ?jobs ?oversubscribe () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let files = ref [] in
  let emit name contents =
    let path = Filename.concat dir name in
    Occamy_util.Json.write_file ~path contents;
    files := path :: !files
  in
  let f2 = Fig2.run () in
  List.iter
    (fun arch ->
      emit
        (Printf.sprintf "fig2_%s.csv"
           (String.lowercase_ascii (Arch.name arch)))
        (timeline_csv (Fig2.result f2 arch)))
    Arch.all;
  emit "pairs.csv" (pairs_csv (Fig10.run ?tc_scale ?jobs ?oversubscribe ()));
  emit "table3.csv" (table3_csv ());
  emit "attrib.csv" (attrib_csv ());
  List.rev !files
