(** The four SIMD architectures compared throughout the paper (Figure 1):
    core-private lanes, fine-grained temporal sharing, static spatial
    sharing, and the paper's elastic spatial sharing. All run on the same
    machine with the same total SIMD resources. *)

type t = Private | Fts | Vls | Occamy

val all : t list
val name : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val splits_vrf : t -> bool
(** Is the vector register file spatially split per core? (All but FTS.) *)

val shares_issue_ports : t -> bool
(** Are the per-cycle vector issue ports shared by all cores? (FTS.) *)
