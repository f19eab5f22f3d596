(** In-memory spans for the traced run: one per call into a layer, kept
    until the run ends and then written as JSONL. Single-domain only; the
    traced run is sequential. *)

type t = {
  id : int;
  name : string;  (** the public function called, e.g. ["Sim.run"] *)
  layer : string;  (** ["compile"], ["sim"], ... or ["other"] for glue *)
  parent : int;  (** id of the enclosing span, [-1] at top level *)
  op : int;  (** id of the op the span belongs to, [-1] outside ops *)
  start_ns : int;
  stop_ns : int;
}

val set_recording : bool -> unit
(** Off by default; while off, {!with_} only calls its function. *)

val recording : unit -> bool

val with_ : layer:string -> string -> (unit -> 'a) -> 'a
(** Run the function inside a span (closed even when it raises). *)

val set_op : int -> unit
(** Stamp spans opened from now on with this op id. *)

val recorded : unit -> t list
(** Closed spans, in order of opening. *)

val self_ns : t list -> (t * int) list
(** Each span with its self time: its duration minus the part of its
    interval covered by its children (overlapping children count once). *)

val by_layer : t list -> (string * int * int) list
(** [(layer, calls, self_ns)] summed over spans, sorted by layer name. *)

val to_jsonl : t list -> string
(** One JSON object per line, in {!recorded} order. *)
