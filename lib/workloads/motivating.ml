(** The motivating example of §2 — Figure 2(a), transcribed literally.

    WL#0 is two memory-intensive loops from SPECCPU2017/654.rom_s:

      Phase 1 (rh3d.f90:1442):
        Ufx[i] = 0.5*dndx[i]*(v[i]+v_1[i])^2
                 - dmde[i]*(v[i]+v_1[i])*(u[i]+u_1[i])
        Ufe[i] = 0.5*dndx[i]*(v[i]+v_1[i])*(u[i]+u_1[i])
                 - dmde[i]*(u[i]+u_1[i])^2

      Phase 2 (rho_eos.f90:1548):
        wrk[i]  = (den[i]+1000)*(bulk[i]+0.1*z_r[i])^2
        Tcof[i] = -(bulkDT[i]*0.1*z_r[i]*den1[i]
                    + den1DT[i]*bulk[i]*(bulk[i]+0.1*z_r[i]))
        Scof[i] = -(bulkDS[i]*0.1*z_r[i]*den1[i]
                    + den1DS[i]*bulk[i]*(bulk[i]+0.1*z_r[i]))

    WL#1 is the computation-intensive k-loop from 621.wrf_s
    (module_mp_wsm.f90:1363):

        wi[k] = (ww[k]*dz[k-1] + ww[k-1]*dz[k]) / (dz[k-1] + dz[k])

    The common subexpressions ((v+v_1), (u+u_1), 0.1*z_r, bulk+0.1*z_r,
    dz[k-1], ww[k-1], ...) are shared by the compiler's CSE, giving WL#1
    genuine data reuse across its stencil taps. *)

module Codegen = Occamy_compiler.Codegen
module Workload = Occamy_core.Workload
module Level = Occamy_mem.Level
open Occamy_compiler.Loop_ir

let rh3d_phase1 ~tc =
  let v = a0 "v" and v1 = a0 "v_1" and u = a0 "u" and u1 = a0 "u_1" in
  let dndx = a0 "dndx" and dmde = a0 "dmde" in
  let vv = v +: v1 and uu = u +: u1 in
  let half = param "half" 0.5 in
  loop ~name:"rom_s.rh3d" ~trip_count:tc ~level:Level.L2
    [
      store "Ufx" (((half *: dndx) *: (vv *: vv)) -: (dmde *: (vv *: uu)));
      store "Ufe" (((half *: dndx) *: (vv *: uu)) -: (dmde *: (uu *: uu)));
    ]

let rho_eos_phase2 ~tc =
  let den = a0 "den" and bulk = a0 "bulk" and z_r = a0 "z_r" in
  let den1 = a0 "den1" in
  let bulk_dt = a0 "bulkDT" and den1_dt = a0 "den1DT" in
  let bulk_ds = a0 "bulkDS" and den1_ds = a0 "den1DS" in
  let zr10 = param "tenth" 0.1 *: z_r in
  let b2 = bulk +: zr10 in
  loop ~name:"rom_s.rho_eos" ~trip_count:tc ~level:Level.L2
    [
      store "wrk" ((den +: c 1000.0) *: (b2 *: b2));
      store "Tcof" (neg (((bulk_dt *: zr10) *: den1) +: ((den1_dt *: bulk) *: b2)));
      store "Scof" (neg (((bulk_ds *: zr10) *: den1) +: ((den1_ds *: bulk) *: b2)));
    ]

let wsm5_loop ~tc =
  let ww = a0 "ww" and ww1 = "ww".%[-1] in
  let dz = a0 "dz" and dz1 = "dz".%[-1] in
  loop ~name:"wrf_s.wsm5" ~trip_count:tc ~level:Level.Vec_cache
    [ store "wi" (((ww *: dz1) +: (ww1 *: dz)) /: (dz1 +: dz)) ]

(** WL#0: the memory-intensive two-phase workload (runs on Core0). *)
let wl0 ?options ?(tc = 10240) () =
  Codegen.compile_workload ?options ~name:"WL#0(654.rom_s)"
    ~kind:Workload.Memory_intensive
    [ rh3d_phase1 ~tc; rho_eos_phase2 ~tc ]

(** WL#1: the computation-intensive workload (runs on Core1). *)
let wl1 ?options ?(tc = 163840) () =
  Codegen.compile_workload ?options ~name:"WL#1(621.wrf_s)"
    ~kind:Workload.Compute_intensive
    [ wsm5_loop ~tc ]

let pair ?tc0 ?tc1 () = [ wl0 ?tc:tc0 (); wl1 ?tc:tc1 () ]
