(** Bounded ring-buffer recorder of cycle-stamped {!Event.t}s, with
    one single-writer track per core / lane manager / sweep worker.
    Disabled tracing costs one flag check; guard event construction at
    the call site: [if Trace.enabled tr then Trace.record tr ...]. *)

type t

val create : ?capacity:int -> tracks:string list -> unit -> t
(** An enabled trace with one ring per named track, each retaining at
    most [capacity] (default 65536) events. A ring starts small and
    doubles on demand up to [capacity], which still bounds its memory;
    only a ring at [capacity] drops its oldest events. Raises
    [Invalid_argument] on a non-positive capacity or an empty track
    list. *)

val disabled : t
(** The shared disabled trace: {!enabled} is [false], {!record} is a
    no-op, and it holds no buffers. *)

val enabled : t -> bool

val record : t -> track:int -> cycle:int -> Event.t -> unit
(** Append to a track's ring, dropping the oldest event when full. A
    track must only ever be written from one domain. *)

val num_tracks : t -> int
val track_name : t -> track:int -> string

val events : t -> track:int -> (int * Event.t) list
(** Retained [(cycle, event)] pairs, oldest first. *)

val dropped : t -> track:int -> int
(** Events lost to ring overflow on this track. *)

val total_events : t -> int
val iter : t -> (track:int -> cycle:int -> Event.t -> unit) -> unit
(** Visit every retained event in place, track by track, each track
    oldest first (the order of {!events}). *)

val for_sim : ?capacity:int -> cores:int -> unit -> t
(** Simulator layout: tracks [core0..core(N-1)] plus a final ["LaneMgr"]
    track ({!lanemgr_track}). *)

val lanemgr_track : t -> int

val for_sweep : ?capacity:int -> workers:int -> unit -> t
(** One track per {!Occamy_util.Domain_pool} worker domain. *)

val sweep_observer :
  ?t0:float ->
  t ->
  label_of:(int -> string) ->
  worker:int ->
  index:int ->
  phase:[ `Start | `Stop | `Steal of int ] ->
  unit
(** Observer for [Domain_pool.map ?observer] recording task spans
    ({!Event.Task_begin}/{!Event.Task_end}) and steal instants
    ({!Event.Task_steal}), stamped in wall-clock microseconds since
    [t0] (default: now). *)
