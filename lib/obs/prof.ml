(* Sampled stage profiler. All bookkeeping is integer arithmetic on
   preallocated arrays; the only external calls on the hot path are
   [Monotonic_clock.now] (noalloc C stub) on sampled cycles. Timestamps
   are native ints (nanoseconds fit in 63 bits for centuries), so no
   clock read or credit allocates — an [int64] field or array cell
   would box each one.

   Attribution is a small explicit scope stack: entering a scope credits
   the elapsed time to whatever was running (the enclosing scope, or the
   [Other] root between scopes), so per-stage exclusive times partition
   the sampled wall-time exactly and shares sum to 100% by
   construction. The (parent, stage) matrix [acc2] additionally keeps
   the one level of context needed to reconstruct folded stacks — the
   simulator's scopes nest at most two deep (front-end -> replan,
   dispatch -> EXE apply, context-switch -> replan). *)

type stage =
  | Frontend
  | Rename
  | Dispatch
  | Exe_apply
  | Lsu_retire
  | Replan
  | Ctx_switch
  | Ff_scan
  | Sample
  | Trace_overhead
  | Other

let all_stages =
  [ Frontend; Rename; Dispatch; Exe_apply; Lsu_retire; Replan; Ctx_switch;
    Ff_scan; Sample; Trace_overhead; Other ]

let num_stages = 11
let root = num_stages  (* pseudo-parent index for top-level scopes *)

let stage_index = function
  | Frontend -> 0
  | Rename -> 1
  | Dispatch -> 2
  | Exe_apply -> 3
  | Lsu_retire -> 4
  | Replan -> 5
  | Ctx_switch -> 6
  | Ff_scan -> 7
  | Sample -> 8
  | Trace_overhead -> 9
  | Other -> 10

let stage_of_index =
  [| Frontend; Rename; Dispatch; Exe_apply; Lsu_retire; Replan; Ctx_switch;
     Ff_scan; Sample; Trace_overhead; Other |]

let stage_name = function
  | Frontend -> "frontend"
  | Rename -> "rename"
  | Dispatch -> "dispatch"
  | Exe_apply -> "exe_apply"
  | Lsu_retire -> "lsu_retire"
  | Replan -> "replan"
  | Ctx_switch -> "ctx_switch"
  | Ff_scan -> "ff_scan"
  | Sample -> "sample"
  | Trace_overhead -> "trace_overhead"
  | Other -> "other"

let max_depth = 16

type t = {
  on : bool;
  mask : int;  (* sample_every - 1 *)
  every : int;
  mutable tick : int;
  mutable is_sampled : bool;
  mutable last : int;
  mutable depth : int;
  stack_stage : int array;
  stack_start : int array;
  calls : int array;
  acc2 : int array array;  (* [parent or root] x [stage] exclusive ns *)
  hists : Histogram.t array;  (* inclusive scope latencies, ns *)
  mutable n_sampled : int;
}

let clock_ns = Monotonic_clock.now
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

let make ~on ~every =
  {
    on;
    mask = every - 1;
    every;
    tick = -1;
    is_sampled = false;
    last = 0;
    depth = 0;
    stack_stage = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    calls = Array.make num_stages 0;
    acc2 = Array.init (num_stages + 1) (fun _ -> Array.make num_stages 0);
    hists = Array.init num_stages (fun _ -> Histogram.create ());
    n_sampled = 0;
  }

let disabled = make ~on:false ~every:1

let create ?(sample_every = 32) () =
  if sample_every < 1 || sample_every land (sample_every - 1) <> 0 then
    invalid_arg "Prof.create: sample_every must be a power of two";
  make ~on:true ~every:sample_every

let sampled t = t.is_sampled
let sample_every t = t.every
let sampled_cycles t = t.n_sampled
let cycles t = t.tick + 1

(* Credit [now - last] to the scope currently running. *)
let credit t now =
  let ns = now - t.last in
  if ns > 0 then begin
    let cur, parent =
      if t.depth > 0 then
        ( t.stack_stage.(t.depth - 1),
          if t.depth > 1 then t.stack_stage.(t.depth - 2) else root )
      else (stage_index Other, root)
    in
    let row = t.acc2.(parent) in
    row.(cur) <- row.(cur) + ns
  end;
  t.last <- now

let begin_cycle t =
  if t.on then begin
    t.tick <- t.tick + 1;
    t.is_sampled <- t.tick land t.mask = 0;
    if t.is_sampled then t.last <- now_ns ()
  end

let enter t stage =
  if t.is_sampled then begin
    if t.depth >= max_depth then invalid_arg "Prof.enter: scopes too deep";
    let now = now_ns () in
    credit t now;
    let s = stage_index stage in
    t.stack_stage.(t.depth) <- s;
    t.stack_start.(t.depth) <- now;
    t.depth <- t.depth + 1;
    t.calls.(s) <- t.calls.(s) + 1
  end

let exit t =
  if t.is_sampled then begin
    if t.depth = 0 then invalid_arg "Prof.exit: no open scope";
    let now = now_ns () in
    credit t now;
    let d = t.depth - 1 in
    let s = t.stack_stage.(d) in
    let incl = now - t.stack_start.(d) in
    Histogram.add t.hists.(s) (if incl > 0 then incl else 0);
    t.depth <- d
  end

let end_cycle t =
  if t.is_sampled then begin
    if t.depth <> 0 then invalid_arg "Prof.end_cycle: unbalanced scopes";
    credit t (now_ns ());
    t.n_sampled <- t.n_sampled + 1
  end

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let stage_ns t s =
  let i = stage_index s in
  Array.fold_left (fun acc row -> acc + row.(i)) 0 t.acc2

let total_sampled_ns t =
  Array.fold_left
    (fun acc row -> Array.fold_left ( + ) acc row)
    0 t.acc2

type stage_stat = {
  ss_stage : stage;
  ss_ns : int;
  ss_calls : int;
  ss_share : float;
  ss_hist : Histogram.t;
}

let stats t =
  let total = total_sampled_ns t in
  let share ns =
    if total = 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int total
  in
  List.filter_map
    (fun s ->
      let i = stage_index s in
      let ns = stage_ns t s in
      if ns = 0 && t.calls.(i) = 0 then None
      else
        Some
          {
            ss_stage = s;
            ss_ns = ns;
            ss_calls = t.calls.(i);
            ss_share = share ns;
            ss_hist = t.hists.(i);
          })
    all_stages
  |> List.sort (fun a b -> compare b.ss_ns a.ss_ns)

let shares t =
  if total_sampled_ns t = 0 then []
  else List.map (fun st -> (st.ss_stage, st.ss_share)) (stats t)

let pretty_ns ns =
  let f = float_of_int ns in
  if f >= 1e9 then Printf.sprintf "%.2f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1f us" (f /. 1e3)
  else Printf.sprintf "%d ns" ns

let summary_table ?title t =
  let module Table = Occamy_util.Table in
  let title =
    match title with
    | Some s -> s
    | None ->
      Printf.sprintf
        "Per-stage cycle-cost profile (%d of %d cycles sampled, 1/%d)"
        (sampled_cycles t) (cycles t) t.every
  in
  let tbl =
    Table.create ~title
      ~header:[ "stage"; "share"; "time"; "calls"; "p50"; "p90"; "p99"; "max" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun st ->
      let h = st.ss_hist in
      let p q =
        if Histogram.is_empty h then "-"
        else pretty_ns (Histogram.percentile h q)
      in
      Table.add_row tbl
        [
          stage_name st.ss_stage;
          Printf.sprintf "%5.1f%%" st.ss_share;
          pretty_ns st.ss_ns;
          string_of_int st.ss_calls;
          p 50.0;
          p 90.0;
          p 99.0;
          (if Histogram.is_empty h then "-"
           else pretty_ns (Histogram.max_value h));
        ])
    (stats t);
  Table.add_row tbl
    [ "total"; "100.0%"; pretty_ns (total_sampled_ns t); ""; ""; ""; ""; "" ];
  tbl

let folded t =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun parent row ->
      Array.iteri
        (fun s ns ->
          if ns > 0 then
            if parent = root then
              Buffer.add_string buf
                (Printf.sprintf "occamy;%s %d\n"
                   (stage_name stage_of_index.(s))
                   ns)
            else
              Buffer.add_string buf
                (Printf.sprintf "occamy;%s;%s %d\n"
                   (stage_name stage_of_index.(parent))
                   (stage_name stage_of_index.(s))
                   ns))
        row)
    t.acc2;
  Buffer.contents buf
