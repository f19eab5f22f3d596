(** Register conventions of the generated code: the Figure-9 handshake
    registers (x2-x4), loop control (x0/x1/x5-x8), stencil address
    temporaries, reduction carries (f0..f5, live across reconfigurations)
    and the broadcast/fold scratch (f6). *)

(** [xi] = element index, [xn] = loop bound, [xvl] = current vector-length
    target (X2), [xstatus]/[xdecision] = the Figure-9 handshake scratches
    (X3/X4), [xk] = active element count, [xelems] = elements per full
    vector, [xouter] = outer-loop counter, [xred] = reduction-store
    scratch. *)

val xi : Occamy_isa.Reg.x
val xn : Occamy_isa.Reg.x
val xvl : Occamy_isa.Reg.x
val xstatus : Occamy_isa.Reg.x
val xdecision : Occamy_isa.Reg.x
val xk : Occamy_isa.Reg.x
val xelems : Occamy_isa.Reg.x
val xtmp : Occamy_isa.Reg.x
val xouter : Occamy_isa.Reg.x
val xred : Occamy_isa.Reg.x

val xaddr : int -> Occamy_isa.Reg.x
val max_addr_temps : int

val fcarry : int -> Occamy_isa.Reg.f
val ffold : Occamy_isa.Reg.f
val first_temp_freg : int
