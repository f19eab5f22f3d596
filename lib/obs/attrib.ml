(* Top-down cycle accounting. Storage is a flat [cores * num_buckets]
   int array plus a window accumulator and a ring of completed windows;
   the recording paths allocate only when the ring doubles. See the mli
   for the contract. *)

module Table = Occamy_util.Table
module Json = Occamy_util.Json

type bucket =
  | Issuing
  | Lane_starved
  | Reconfig_blocked
  | Rename_stall
  | Lsu_vc
  | Lsu_l2
  | Lsu_dram
  | Mob_conflict
  | Exe_latency
  | Ctx_switch
  | Scalar
  | Idle

let all =
  [
    Issuing; Lane_starved; Reconfig_blocked; Rename_stall; Lsu_vc; Lsu_l2;
    Lsu_dram; Mob_conflict; Exe_latency; Ctx_switch; Scalar; Idle;
  ]

let num_buckets = List.length all

let index = function
  | Issuing -> 0
  | Lane_starved -> 1
  | Reconfig_blocked -> 2
  | Rename_stall -> 3
  | Lsu_vc -> 4
  | Lsu_l2 -> 5
  | Lsu_dram -> 6
  | Mob_conflict -> 7
  | Exe_latency -> 8
  | Ctx_switch -> 9
  | Scalar -> 10
  | Idle -> 11

let name = function
  | Issuing -> "issuing"
  | Lane_starved -> "lane_starved"
  | Reconfig_blocked -> "reconfig_blocked"
  | Rename_stall -> "rename_stall"
  | Lsu_vc -> "lsu_vc"
  | Lsu_l2 -> "lsu_l2"
  | Lsu_dram -> "lsu_dram"
  | Mob_conflict -> "mob_conflict"
  | Exe_latency -> "exe_latency"
  | Ctx_switch -> "ctx_switch"
  | Scalar -> "scalar"
  | Idle -> "idle"

let letter = function
  | Issuing -> 'I'
  | Lane_starved -> 'S'
  | Reconfig_blocked -> 'R'
  | Rename_stall -> 'N'
  | Lsu_vc -> 'v'
  | Lsu_l2 -> 'l'
  | Lsu_dram -> 'd'
  | Mob_conflict -> 'M'
  | Exe_latency -> 'E'
  | Ctx_switch -> 'C'
  | Scalar -> 's'
  | Idle -> '.'

let of_level = function
  | Occamy_mem.Level.Vec_cache -> Lsu_vc
  | Occamy_mem.Level.L2 -> Lsu_l2
  | Occamy_mem.Level.Dram -> Lsu_dram

type t = {
  on : bool;
  n_cores : int;
  cell : int array;  (* cores x num_buckets, row-major *)
  win_size : int;
  win : int array;  (* current window accumulator, summed over cores *)
  mutable ring : int array;  (* capacity x num_buckets completed windows *)
  mutable capacity : int;  (* doubles from [first_windows] to [ring_windows] *)
  mutable head : int;  (* windows pushed so far; slot = head mod capacity *)
  mutable win_end : int;  (* last cycle of the current window *)
}

let disabled =
  {
    on = false;
    n_cores = 0;
    cell = [||];
    win_size = 1;
    win = [||];
    ring = [||];
    capacity = 0;
    head = 0;
    win_end = 0;
  }

(* Completed windows the time-series ring holds at most, and at first:
   a short run fills a handful, so the ring starts small and doubles
   when full until it reaches [ring_windows]; only then does it wrap. *)
let ring_windows = 512
let first_windows = 4

let create ?(window = 1024) ~cores () =
  if cores <= 0 then invalid_arg "Attrib.create: cores must be positive";
  if window <= 0 then invalid_arg "Attrib.create: window must be positive";
  {
    on = true;
    n_cores = cores;
    cell = Array.make (cores * num_buckets) 0;
    win_size = window;
    win = Array.make num_buckets 0;
    ring = Array.make (first_windows * num_buckets) 0;
    capacity = first_windows;
    head = 0;
    win_end = window;
  }

let enabled t = t.on
let cores t = t.n_cores
let window t = t.win_size

(* Push the current window into the ring and reset it. Cycles are
   attributed strictly in order, so a window is complete exactly when
   the first cycle beyond [win_end] arrives. *)
let flush t =
  if t.head = t.capacity && t.capacity < ring_windows then begin
    (* Not wrapped yet, so slots 0 .. head-1 hold the windows in order. *)
    let ring = Array.make (2 * t.capacity * num_buckets) 0 in
    Array.blit t.ring 0 ring 0 (t.capacity * num_buckets);
    t.ring <- ring;
    t.capacity <- 2 * t.capacity
  end;
  let slot = t.head mod t.capacity in
  Array.blit t.win 0 t.ring (slot * num_buckets) num_buckets;
  t.head <- t.head + 1;
  Array.fill t.win 0 num_buckets 0;
  t.win_end <- t.win_end + t.win_size

let add t ~core ~cycle b =
  if t.on then begin
    while cycle > t.win_end do
      flush t
    done;
    let i = index b in
    t.cell.((core * num_buckets) + i) <- t.cell.((core * num_buckets) + i) + 1;
    t.win.(i) <- t.win.(i) + 1
  end

let add_run_all t ~start_cycle ~len ~buckets =
  if t.on && len > 0 then begin
    for c = 0 to t.n_cores - 1 do
      let i = buckets.(c) in
      t.cell.((c * num_buckets) + i) <- t.cell.((c * num_buckets) + i) + len
    done;
    (* Window-chunk-major so the flush boundaries (and therefore the
       ring contents) are bit-identical to [len] per-cycle [add] sweeps
       over all cores: every core's contribution to a window is booked
       before that window is flushed. *)
    let pos = ref start_cycle and remaining = ref len in
    while !remaining > 0 do
      while !pos > t.win_end do
        flush t
      done;
      let chunk = Int.min !remaining (t.win_end - !pos + 1) in
      for c = 0 to t.n_cores - 1 do
        let i = buckets.(c) in
        t.win.(i) <- t.win.(i) + chunk
      done;
      pos := !pos + chunk;
      remaining := !remaining - chunk
    done
  end

let count t ~core b =
  if t.on then t.cell.((core * num_buckets) + index b) else 0

let core_total t ~core =
  if not t.on then 0
  else begin
    let s = ref 0 in
    for i = 0 to num_buckets - 1 do
      s := !s + t.cell.((core * num_buckets) + i)
    done;
    !s
  end

let share t ~core b =
  let tot = core_total t ~core in
  if tot = 0 then 0.0
  else 100.0 *. float_of_int (count t ~core b) /. float_of_int tot

let counts t =
  if not t.on then [||]
  else
    Array.init t.n_cores (fun c ->
        Array.init num_buckets (fun i -> t.cell.((c * num_buckets) + i)))

let dropped_windows t = max 0 (t.head - t.capacity)

let samples t =
  if not t.on then []
  else begin
    let first = max 0 (t.head - t.capacity) in
    List.init (t.head - first) (fun k ->
        let j = first + k in
        let slot = j mod t.capacity in
        ( (j + 1) * t.win_size,
          Array.init num_buckets (fun i -> t.ring.((slot * num_buckets) + i))
        ))
  end

let pending t =
  if (not t.on) || Array.for_all (fun v -> v = 0) t.win then None
  else Some (t.win_end, Array.copy t.win)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let bucket_array = Array.of_list all

let summary_table ?(title = "Cycle accounting") t =
  let tbl =
    Table.create ~title
      ~header:[ "core"; "bucket"; "cycles"; "share" ]
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right ]
      ()
  in
  for c = 0 to t.n_cores - 1 do
    let tot = core_total t ~core:c in
    let rows =
      List.filter (fun b -> count t ~core:c b > 0) all
      |> List.sort (fun a b -> compare (count t ~core:c b) (count t ~core:c a))
    in
    List.iter
      (fun b ->
        Table.add_row tbl
          [
            string_of_int c;
            name b;
            Table.icell (count t ~core:c b);
            Table.pcell
              (if tot = 0 then 0.0
               else float_of_int (count t ~core:c b) /. float_of_int tot);
          ])
      rows
  done;
  tbl

let render_timeseries t =
  let width = 72 and height = 12 in
  if not t.on then "attribution disabled\n"
  else begin
    let cols =
      Array.of_list
        (List.map snd (samples t)
        @ match pending t with Some (_, w) -> [ w ] | None -> [])
    in
    let ncols = Array.length cols in
    if ncols = 0 then "attribution timeseries: no samples yet\n"
    else begin
      (* Merge adjacent windows down to at most [width] columns. *)
      let per_col = (ncols + width - 1) / width in
      let merged = (ncols + per_col - 1) / per_col in
      let col j =
        let acc = Array.make num_buckets 0 in
        let lo = j * per_col and hi = min ncols ((j + 1) * per_col) - 1 in
        for k = lo to hi do
          let w = cols.(k) in
          for i = 0 to num_buckets - 1 do
            acc.(i) <- acc.(i) + w.(i)
          done
        done;
        acc
      in
      let buf = Buffer.create ((merged + 4) * (height + 3)) in
      Buffer.add_string buf
        (Printf.sprintf
           "attribution timeseries: %d windows of %d cycles%s, %d col%s of \
            %d window%s\n"
           (t.head + match pending t with Some _ -> 1 | None -> 0)
           t.win_size
           (if dropped_windows t > 0 then
              Printf.sprintf " (%d oldest dropped)" (dropped_windows t)
            else "")
           merged
           (if merged = 1 then "" else "s")
           per_col
           (if per_col = 1 then "" else "s"));
      let grid = Array.make_matrix height merged ' ' in
      for j = 0 to merged - 1 do
        let w = col j in
        let tot = Array.fold_left ( + ) 0 w in
        if tot > 0 then begin
          let ftot = float_of_int tot in
          for r = 0 to height - 1 do
            (* Row 0 is the bottom; paint the bucket whose cumulative
               share covers the middle of this cell. *)
            let thresh = (float_of_int r +. 0.5) /. float_of_int height in
            let rec pick i acc =
              if i >= num_buckets then letter Idle
              else begin
                let acc = acc +. (float_of_int w.(i) /. ftot) in
                if acc > thresh then letter bucket_array.(i)
                else pick (i + 1) acc
              end
            in
            grid.(height - 1 - r).(j) <- pick 0 0.0
          done
        end
      done;
      Array.iter
        (fun row ->
          Buffer.add_char buf '|';
          Array.iter (Buffer.add_char buf) row;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_char buf '+';
      Buffer.add_string buf (String.make merged '-');
      Buffer.add_char buf '\n';
      (* Legend: only buckets that appear anywhere. *)
      let totals = Array.make num_buckets 0 in
      Array.iter
        (fun w ->
          for i = 0 to num_buckets - 1 do
            totals.(i) <- totals.(i) + w.(i)
          done)
        cols;
      Buffer.add_char buf ' ';
      List.iteri
        (fun i b ->
          if totals.(i) > 0 then
            Buffer.add_string buf (Printf.sprintf "%c=%s " (letter b) (name b)))
        all;
      Buffer.add_char buf '\n';
      Buffer.contents buf
    end
  end

let json_fields t =
  if not t.on then []
  else begin
    let per_core c =
      let tot = core_total t ~core:c in
      List.concat_map
        (fun b ->
          let v = count t ~core:c b in
          let key s =
            Printf.sprintf "core%d.attrib.%s%s" c (name b) s
          in
          [
            (key "", Json.Num (float_of_int v));
            ( key ".share",
              Json.Num
                (if tot = 0 then 0.0
                 else 100.0 *. float_of_int v /. float_of_int tot) );
          ])
        all
    in
    ("attrib.window", Json.Num (float_of_int t.win_size))
    :: ("attrib.windows", Json.Num (float_of_int t.head))
    :: List.concat (List.init t.n_cores per_core)
  end
