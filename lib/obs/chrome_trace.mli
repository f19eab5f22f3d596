(** Chrome/Perfetto trace-event JSON and CSV exporters for {!Trace.t}:
    one timeline lane per track (cores + LaneMgr), phase spans as B/E
    events, stall/blocked episodes as complete events, the rest as
    instants. Load the JSON in `chrome://tracing` or ui.perfetto.dev. *)

val to_json : ?attrib:Attrib.t -> Trace.t -> string
(** The [{"traceEvents":[...]}] JSON-object form; 1 cycle = 1 us.
    [attrib] (default {!Attrib.disabled}) adds a counter ("C") track of
    per-bucket cycle deltas — one numeric-args event per completed
    sampling window plus the final partial one — that Perfetto renders
    as a stacked area chart above the span lanes. *)

val to_csv : Trace.t -> string
(** [track,cycle,event,core,args] rows, args as [k=v|k=v]. Outside this
    module only test_obs reads {!to_json} and [to_csv]: the documents the
    writers below save, checked in memory. *)

val write_json : ?attrib:Attrib.t -> path:string -> Trace.t -> unit
val write_csv : path:string -> Trace.t -> unit
