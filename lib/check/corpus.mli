(** Regression corpus: named case seeds replayed by the tier-1 tests.

    Every entry is a {!Rng.case_seed}-style replay seed chosen for the
    coverage its generated workload exhibits (degenerate trips, scalar
    multi-version boundary, reduction mixes, multi-phase dataflow, deep
    guarded-division expressions). Nightly counterexamples get fixed,
    then their seed is appended here so the bug stays fixed — promote a
    seed by adding one line. *)

type entry = { name : string; seed : int }

val entries : entry list

val replay : entry -> (unit, Diff.failure) result
(** Run one corpus entry through the full differential pipeline. *)
