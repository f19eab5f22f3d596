(** The differential oracle: one fuzz case, three executors, one verdict.

    A case is a random multi-phase workload plus a schedule seed and
    compiler options, all derived purely from one integer — so the
    printed seed IS the repro. The oracle then checks, in order:

    + the workload compiles;
    + the compiled program, run under {!Occamy_isa.Interp} at every solo
      vector width and under adversarial reconfiguration schedules
      (suggested width churning, requests randomly refused), computes
      what {!Occamy_compiler.Reference} computes — the paper's §6.4
      correctness property, within a reduction-reassociation tolerance;
    + the cycle simulator runs it on all four architectures — under both
      the naive tick loop and the event-horizon fast-forwarding loop
      ([Config.fast_forward]), which must agree bit-for-bit on metrics
      and trace streams — without tripping a structural {!Invariant};
    + the simulator's observed vector-memory traffic equals the static
      Equation-5 prediction ([issue_bytes x trips x reps] per vectorized
      phase, per core) — tying {!Occamy_compiler.Analysis} to what the
      machine actually did.

    The [inject] hook transforms the loops fed to the *compiler* while
    the reference still runs the originals — a seeded-bug lever for
    testing that the fuzzer catches miscompilation (e.g. an off-by-one
    stencil offset) and that {!Shrink} minimises it. *)

type case = {
  case_seed : int;  (** the one number that reproduces everything *)
  sched_seed : int; (** derived: seeds memory init + adversarial schedules *)
  loops : Occamy_compiler.Loop_ir.t list;
  options : Occamy_compiler.Codegen.options;
}

val case_of_seed : ?cfg:Gen.cfg -> int -> case
(** Deterministically grow the [case_seed]-th case. Schedule seed and
    compiler options are pure functions of the seed, never of the loops —
    so shrinking the loops re-runs the identical schedules. *)

type failure = {
  stage : string;   (** which check tripped: compile / interp / sim / ... *)
  message : string;
}

val pp_failure : Format.formatter -> failure -> unit
val pp_case : Format.formatter -> case -> unit

val run :
  ?inject:(Occamy_compiler.Loop_ir.t -> Occamy_compiler.Loop_ir.t) ->
  case ->
  (unit, failure) result
(** Execute the whole differential pipeline on one case. Exceptions from
    any stage (compiler rejection, interpreter fault, simulator error)
    are caught and reported as failures — a fuzzer must survive its own
    counterexamples. *)

val run_counted :
  ?inject:(Occamy_compiler.Loop_ir.t -> Occamy_compiler.Loop_ir.t) ->
  case ->
  (int, failure) result
(** {!run}, also counting the periodic fast-forward jumps its
    fast-forwarding simulations took ({!Occamy_core.Sim.periodic_jumps},
    summed over the four architectures): a case with one checks the
    periodic path against the naive loop. *)

val eps : float
(** Relative value tolerance of the interp-vs-reference comparison. *)

val fresh_image :
  seed:int ->
  ?extra_plan:(string * int) list ->
  Occamy_compiler.Loop_ir.t list ->
  (string, float array) Hashtbl.t
(** The deterministic initial memory image of a case (keyed by its
    schedule seed): every array of the loops' {!Occamy_compiler.Codegen.array_plan},
    random in [-2, 2). [extra_plan] widens arrays whose padded size
    differs in the program actually compiled. *)

val copy_image :
  (string, float array) Hashtbl.t -> (string, float array) Hashtbl.t

val lookup : (string, float array) Hashtbl.t -> string -> float array
(** Raises [Invalid_argument] on a missing array. *)

val predicted_bytes :
  options:Occamy_compiler.Codegen.options ->
  Occamy_compiler.Loop_ir.t list ->
  float
(** The static Equation-5 traffic prediction for a compiled workload on
    one core: per-iteration issue bytes times the iteration space of
    every phase that runs vectorized under [options]. The simulator's
    observed vector-memory traffic must equal this exactly. *)

val run_interp :
  stage:string ->
  eps:float ->
  ?env:Occamy_isa.Interp.env ->
  Occamy_core.Workload.t ->
  (string, float array) Hashtbl.t ->
  (string, float array) Hashtbl.t ->
  (unit, failure) result
(** Run the compiled workload under the functional interpreter seeded
    from the init image (last argument) and compare every declared array
    against the expectation image (second-to-last): the single-executor
    building block of {!run}. *)

val schedule_env :
  ?max_granules:int ->
  ?period:int ->
  ?refuse_p:float ->
  seed:int ->
  unit ->
  Occamy_isa.Interp.env
(** Adversarial interpreter environment: the suggested vector length
    changes every [period] `<decision>` reads and requests are refused
    with probability [refuse_p] (forcing status-spins) — driven by
    {!Rng}, so a given seed is one exact schedule. *)
