(** The fuzzing driver: seed discipline, parallel fan-out, shrinking,
    repro commands.

    Case [i] under root seed [S] is {!Rng.case_seed}[ ~seed:S i] — a pure
    function, so a counterexample is fully identified by its printed
    case seed and replayed with [occamy-sim fuzz --case <seed>] without
    re-running the campaign. Cases fan out over
    {!Occamy_util.Domain_pool} in batches; the first failing case (by
    campaign order, deterministically, whatever the job count) is
    shrunk with {!Shrink} and reported. *)

type counterexample = {
  cx_index : int;          (** campaign position of the failing case *)
  cx_seed : int;           (** its replay seed *)
  cx_failure : Diff.failure;  (** failure of the *shrunk* case *)
  cx_original : Diff.case; (** as generated *)
  cx_shrunk : Diff.case;   (** after minimisation *)
  cx_steps : int;          (** accepted shrink steps *)
}

type report = {
  root_seed : int;
  cases_run : int;
  elapsed : float;         (** wall-clock seconds *)
  periodic_cases : int;
      (** passing cases whose fast-forwarding simulations took a periodic
          jump, so their naive-vs-fast-forward check covered it *)
  inject : string option;  (** the campaign's seeded bug, if any *)
  counterexample : counterexample option;
}

val injections :
  (string * (Occamy_compiler.Loop_ir.t -> Occamy_compiler.Loop_ir.t)) list
(** Named seeded bugs for exercising the fuzzer itself: an off-by-one
    stencil offset, a dropped tail iteration, a perturbed loop-invariant
    parameter. Each is applied to the loops fed to the compiler while
    the reference runs the originals (see {!Diff.run}). *)

val run_case :
  ?gen_cfg:Gen.cfg ->
  ?inject_name:string ->
  int ->
  (unit, Diff.failure) result
(** Run one case by its replay seed. *)

val run :
  ?gen_cfg:Gen.cfg ->
  ?inject_name:string ->
  ?minutes:float ->
  ?on_batch:(done_:int -> unit) ->
  ?oversubscribe:bool ->
  seed:int ->
  count:int ->
  jobs:int ->
  unit ->
  report
(** A fuzzing campaign: [count] cases (when [minutes] is given, repeated
    batches of fresh cases until the deadline instead), [jobs]-way
    parallel ([jobs] is elastically capped like any
    {!Occamy_util.Domain_pool.map} unless [oversubscribe]). Stops at the
    first failing batch; within it the lowest-index failure is shrunk.
    [on_batch] reports progress.

    @raise Invalid_argument if [count] is negative or [minutes] is not
    strictly positive — either would silently run zero cases. *)

val repro_command : ?inject_name:string -> int -> string
(** The self-contained command that replays a case seed. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable campaign summary; a counterexample prints its shrunk
    loops and the repro command. *)
