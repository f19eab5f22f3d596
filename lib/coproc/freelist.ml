(** Physical-register-row freelist for the renamer.

    The register file is split into RegBlks of [depth] rows of 128-bit
    physical vector registers (160 in the evaluated configuration,
    §4.2.1); a renamed instruction allocates one *row* — the same index
    across every RegBlk its core owns — and holds it until commit.

    Sharing policy is what differentiates the architectures (§2.1, §7.3):

    - spatial sharing (Private / VLS / Occamy): each core renames into its
      own RegBlks, so each core gets an independent freelist of
      [depth - pinned] rows, where [pinned] covers its architectural
      state. Splitting a VRF *entry* between cores costs nothing because
      the blocks are disjoint.
    - temporal sharing (FTS): every instruction is full-width, so a row
      must be free in *all* RegBlks simultaneously — one shared freelist —
      and every core's architectural state pins rows in it. This is the
      register pressure that produces Figure 13's rename-stall cycles.

    Rows are fungible, so a counting model suffices; the stall accounting
    (attempted allocations that failed) feeds the Figure 13 metric. *)

type t = {
  capacity : int;  (* rows available for in-flight destinations *)
  mutable in_use : int;
  mutable failed_allocs : int;
  mutable peak : int;
}

let create ~depth ~pinned =
  if depth <= 0 || pinned < 0 || pinned >= depth then
    invalid_arg "Freelist.create";
  { capacity = depth - pinned; in_use = 0; failed_allocs = 0; peak = 0 }

let capacity t = t.capacity
let in_use t = t.in_use
let free t = t.capacity - t.in_use

(** Allocate one row; [false] means the renamer must stall this cycle. *)
let alloc t =
  if t.in_use >= t.capacity then begin
    t.failed_allocs <- t.failed_allocs + 1;
    false
  end
  else begin
    t.in_use <- t.in_use + 1;
    if t.in_use > t.peak then t.peak <- t.in_use;
    true
  end

let release t =
  if t.in_use <= 0 then invalid_arg "Freelist.release: nothing allocated";
  t.in_use <- t.in_use - 1

(** Drop all in-flight rows (used on pipeline drain + reconfiguration:
    the freed RegBlks' contents are not preserved, §4.2.2). *)
let release_all t = t.in_use <- 0

(** Batch form of the stall accounting: [count] allocation attempts that
    would all have failed (the freelist is exhausted and nothing releases
    in between), recorded without [count] calls to {!alloc}. Lets the
    fast-forward path keep the Figure 13 counters exact across skipped
    cycles. *)
let record_failures t ~count =
  if count < 0 then invalid_arg "Freelist.record_failures: negative count";
  t.failed_allocs <- t.failed_allocs + count

let failed_allocs t = t.failed_allocs
let peak_in_use t = t.peak
