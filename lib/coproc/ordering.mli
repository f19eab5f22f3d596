(** The instruction-ordering policy matrix of Table 2: for every
    ⟨older, younger⟩ class pair, which agent maintains ordering and by
    what mechanism. The simulator implements each rule where it applies
    (transmit, dispatch, the <VL> drain); this table is the paper's
    statement of them. Only test_coproc reads it ("ordering matrix
    (Table 2)"); test_ordering checks the simulator's behaviour row by
    row. *)

type agent = Scalar_cores | Occamy_hardware | Occamy_compiler

type mechanism =
  | Standard
  | Delay_transmit
  | Delay_issue
  | Vl_after_drain
  | Em_simd_in_order
  | Retry_until_success

val policy :
  older:Occamy_isa.Instr.cls -> younger:Occamy_isa.Instr.cls ->
  agent * mechanism

val agent_name : agent -> string
val mechanism_name : mechanism -> string
