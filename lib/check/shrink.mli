(** Greedy counterexample minimisation.

    A raw fuzz counterexample is a multi-phase workload of deep random
    expressions; the bug is usually reproducible by a fraction of it.
    [minimise] repeatedly tries structural reductions — drop a phase,
    drop a statement, collapse trip counts and outer repetitions, zero
    stencil offsets, replace an operator node by one of its operands —
    and keeps a candidate only if the differential pipeline still fails
    AND the candidate is strictly smaller (by {!Occamy_compiler.Loop_ir.size},
    with total trip count as tie-breaker, so shrinking can never cycle
    or grow). The reduction order is fixed, so a given (case, failure)
    always minimises to the same witness.

    Only the loops are rewritten: the case's schedule seed and compiler
    options are untouched, so every candidate re-runs the identical
    schedules the original failed under. *)

type result = {
  case : Diff.case;       (** the minimised counterexample *)
  failure : Diff.failure; (** the failure the minimised case exhibits *)
  steps : int;            (** accepted reductions *)
  tried : int;            (** candidate evaluations (oracle runs) *)
}

val size : Diff.case -> int
(** Total {!Occamy_compiler.Loop_ir.size} over the case's loops. *)

val minimise :
  ?inject:(Occamy_compiler.Loop_ir.t -> Occamy_compiler.Loop_ir.t) ->
  ?max_tries:int ->
  Diff.case ->
  Diff.failure ->
  result
(** Shrink a failing case. [inject] must be the same bug hook the case
    originally failed under. [max_tries] (default 600) bounds
    {!Diff.run} calls; the measure strictly decreases on every accepted
    step, so termination never depends on it. The reported failure of
    the result is re-established by the final run, never assumed. *)
