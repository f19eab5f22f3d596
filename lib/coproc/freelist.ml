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

    Rows are fungible, so a counting model suffices. A failed {!alloc} is
    a rename stall; the simulator counts those cycles itself. *)

type t = {
  capacity : int;  (* rows available for in-flight destinations *)
  mutable in_use : int;
}

let create ~depth ~pinned =
  if depth <= 0 || pinned < 0 || pinned >= depth then
    invalid_arg "Freelist.create";
  { capacity = depth - pinned; in_use = 0 }

let free t = t.capacity - t.in_use

(** Allocate one row; [false] means the renamer must stall this cycle. *)
let alloc t =
  if t.in_use >= t.capacity then false
  else begin
    t.in_use <- t.in_use + 1;
    true
  end

let release t =
  if t.in_use <= 0 then invalid_arg "Freelist.release: nothing allocated";
  t.in_use <- t.in_use - 1
