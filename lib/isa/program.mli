(** Programs: resolved instruction arrays plus array declarations. Labels
    are resolved to indices at build time, so executors never do string
    lookups. *)

type array_decl = { arr_name : string; arr_size : int; arr_id : int }

type t = {
  name : string;
  code : Instr.t array;
  targets : int array;  (** branch-target index per instruction, or -1 *)
  arrays : array_decl array;
  labels : (string * int) list;
}

val array_name : t -> int -> string

val pp : Format.formatter -> t -> unit
(** Disassembly with labels and array declarations. *)

(** Imperative builder with forward-label support. *)
module Builder : sig
  type builder

  val create : string -> builder
  val emit : builder -> Instr.t -> unit

  val fresh_label : builder -> string -> Instr.label
  (** A unique label with the given prefix. *)

  val place_label : builder -> Instr.label -> unit
  (** Bind a label to the next emitted instruction; raises on
      duplicates. *)

  val declare_array : builder -> name:string -> size:int -> int
  (** Returns the array id used by memory instructions. *)

  val finish : builder -> t
  (** Resolves branch targets; raises on unbound labels. *)
end
