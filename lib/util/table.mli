(** Plain-text table rendering for the benchmark harness: fixed-width
    columns, stable ordering, diffable output. *)

type align = Left | Right

type t

val create :
  title:string -> header:string list -> ?aligns:align list -> unit -> t
(** [aligns] defaults to right-aligned everywhere and must match the
    header length when given. *)

val add_row : t -> string list -> unit
(** Rows render in insertion order; the cell count must match the
    header. *)

val fcell : ?digits:int -> float -> string
(** Fixed-point cell, default two digits. *)

val icell : int -> string

val pcell : ?digits:int -> float -> string
(** Percentage cell: [0.42] renders as ["42.0%"]. *)

val xcell : ?digits:int -> float -> string
(** Speedup cell: [1.39] renders as ["1.39x"]. *)

val render : t -> string
val print : t -> unit
