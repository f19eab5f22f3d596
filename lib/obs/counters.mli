(** Named counter/gauge registry: a flat, dotted namespace experiments
    and tests read by name ({!get}) instead of pattern-matching result
    records. *)

type t

val create : unit -> t

val set : t -> string -> float -> unit
(** Set a gauge, creating it if needed. *)

val get : t -> string -> float option
val get_exn : t -> string -> float

val to_list : t -> (string * float) list
(** Sorted by name. *)

val to_json : t -> (string * Occamy_util.Json.value) list
(** Flat JSON object fields, sorted by name — the stable iteration
    order that keeps JSON and OpenMetrics exports deterministic across
    runs ({!to_list} order). *)
