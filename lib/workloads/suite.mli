(** The evaluation suite of §7.1: the 25 co-running pairs of Figure 10
    (memory workload on Core0, compute workload on Core1) and the four
    4-core groups of §7.6. *)

type source = Spec_wl of int | Opencv_wl of int

type pair = {
  label : string;
  core0 : source;
  core1 : source;
  category : [ `Mem_mem | `Comp_comp | `Mem_comp ];
}

val spec_pairs : pair list
val opencv_pairs : pair list
val pairs : pair list

val source_name : source -> string

val compile :
  ?options:Occamy_compiler.Codegen.options -> ?tc_scale:float -> source ->
  Occamy_core.Workload.t

val compile_count : unit -> int
(** Process-wide number of {!compile} calls. Only test_parallel reads it
    and {!reset_compile_count}, as the oracle of the experiment runners'
    compile-once guarantee. *)

val reset_compile_count : unit -> unit

val compile_pair :
  ?options:Occamy_compiler.Codegen.options -> ?tc_scale:float -> pair ->
  Occamy_core.Workload.t list

val find_pair : string -> pair option

type group = { g_label : string; members : source list }

val four_core_groups : group list

val compile_group :
  ?options:Occamy_compiler.Codegen.options -> ?tc_scale:float -> group ->
  Occamy_core.Workload.t list

val table3_rows : unit -> (string * string * float * float) list
(** (workload, phase, paper oi, analysed oi) for every Table 3 row. *)
