type entry = { name : string; seed : int }

(* Seeds are raw case seeds ([occamy-sim fuzz --case <seed>]), named for
   the coverage they pin down. See the .mli for the promotion workflow. *)
let entries =
  [
    (* tc=1 with stores at i-1 and a running max: the degenerate trip. *)
    { name = "trip1-degenerate"; seed = 8 };
    (* tc=60 sits just under the scalar threshold; second phase tc=4. *)
    { name = "multiversion-boundary"; seed = 2 };
    (* reps=3 with a cc[i-2] stencil tap and an unhoisted prologue. *)
    { name = "outer-reps-stencil"; seed = 1 };
    (* two phases, DRAM then L2 footprints. *)
    { name = "multi-phase"; seed = 9 };
    (* faddv reduction interleaved between two stores. *)
    { name = "reduction-mix"; seed = 11 };
    (* fminv over a guarded division, store with a d[i-2] tap. *)
    { name = "deep-guarded-div"; seed = 12 };
    (* sqrt/div chains over tc<=4 phases: every arch goes quiescent long
       enough for the fast-forward skip path (test_check asserts so). *)
    { name = "quiescent-sqrt-chain"; seed = 16 };
    (* tc=233 with fmaxv+fminv drains — long Vred pipeline-drain waits
       hit the skip path on all four architectures. *)
    { name = "quiescent-vred-drain"; seed = 221 };
  ]

let replay e = Diff.run (Diff.case_of_seed e.seed)
