(** Random {!Occamy_compiler.Loop_ir} workload generator for the
    differential fuzzer.

    Generates loops that stay inside the class the compiler supports
    (documented constraints of {!Occamy_compiler.Loop_ir.validate} and
    the vectorizer's ABI budgets) while being adversarial everywhere it
    matters: trip counts of 1, trip counts straddling the multi-version
    scalar threshold, trip counts not divisible by any vector width,
    stencil offsets up to the ±8 bound, reductions of every operator,
    deep operator mixes including guarded division and square root,
    multi-phase workloads where later phases consume earlier phases'
    outputs, and outer repetitions exercising prologue hoisting.

    Arrays written by a loop are never read by the same loop: loop-carried
    dependences are outside the vectorized class (the compiler assumes
    them away, as does the paper's §6 loop class), so generating one
    would "find" a mismatch that is a precondition violation, not a bug. *)

type cfg = {
  max_phases : int;      (** phases per generated workload (≥ 1) *)
  max_stmts : int;       (** statements per loop (≥ 1) *)
  max_depth : int;       (** operator nesting depth of expressions *)
  max_trip : int;        (** upper bound on generated trip counts *)
  allow_div_sqrt : bool; (** emit (guarded) Div and Sqrt operators *)
  allow_outer_reps : bool;  (** emit outer_reps > 1 *)
}

val workload : ?cfg:cfg -> Rng.t -> Occamy_compiler.Loop_ir.t list
(** A random multi-phase workload; later phases may read what earlier
    phases wrote. Every loop is validated. *)
