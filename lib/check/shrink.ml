module Loop_ir = Occamy_compiler.Loop_ir

type result = {
  case : Diff.case;
  failure : Diff.failure;
  steps : int;
  tried : int;
}

let size (c : Diff.case) =
  List.fold_left (fun acc l -> acc + Loop_ir.size l) 0 c.Diff.loops

(* Shrinking measure: structural size first, total iteration space as a
   tie-breaker (so trip 65 -> 64 counts as progress even when the bit
   length is unchanged). Strictly decreasing on acceptance. *)
let measure (c : Diff.case) =
  ( size c,
    List.fold_left
      (fun acc (l : Loop_ir.t) -> acc + (l.Loop_ir.trip_count * l.Loop_ir.outer_reps))
      0 c.Diff.loops )

let smaller a b = compare (measure a) (measure b) < 0

(* ------------------------------------------------------------------ *)
(* Candidate generation (deterministic order)                          *)
(* ------------------------------------------------------------------ *)

let replace_nth xs n x = List.mapi (fun i y -> if i = n then x else y) xs
let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* Immediate simplifications of an expression: each operand of the root
   operator, then a plain constant. Nested nodes surface after earlier
   acceptances re-run the pass. *)
let expr_candidates (e : Loop_ir.expr) =
  let const = Loop_ir.Const 1.0 in
  match e with
  | Loop_ir.Op (_, args) -> args @ [ const ]
  | Loop_ir.Const _ -> []
  | Loop_ir.Load _ | Loop_ir.Param _ -> [ const ]

let stmt_with_expr s e =
  match s with
  | Loop_ir.Store (ref_, _) -> Loop_ir.Store (ref_, e)
  | Loop_ir.Reduce (op, name, _) -> Loop_ir.Reduce (op, name, e)

let stmt_expr = function
  | Loop_ir.Store (_, e) -> e
  | Loop_ir.Reduce (_, _, e) -> e

let zero_offsets_stmt s =
  let rec ze = function
    | Loop_ir.Load r -> Loop_ir.Load { r with Loop_ir.offset = 0 }
    | Loop_ir.Op (op, args) -> Loop_ir.Op (op, List.map ze args)
    | (Loop_ir.Const _ | Loop_ir.Param _) as e -> e
  in
  match s with
  | Loop_ir.Store (r, e) -> Loop_ir.Store ({ r with Loop_ir.offset = 0 }, ze e)
  | Loop_ir.Reduce (op, name, e) -> Loop_ir.Reduce (op, name, ze e)

(* Variants of one loop, smallest-step last: trip-count collapses, outer
   reps, offset zeroing, statement drops, expression simplification. *)
let loop_candidates (l : Loop_ir.t) =
  let with_trip t = { l with Loop_ir.trip_count = t } in
  let trips =
    List.filter_map
      (fun t -> if t >= 1 && t < l.Loop_ir.trip_count then Some (with_trip t) else None)
      [ 1; l.Loop_ir.trip_count / 2; l.Loop_ir.trip_count - 1 ]
  in
  let reps =
    if l.Loop_ir.outer_reps > 1 then [ { l with Loop_ir.outer_reps = 1 } ]
    else []
  in
  let zeroed =
    let body = List.map zero_offsets_stmt l.Loop_ir.body in
    if body <> l.Loop_ir.body then [ { l with Loop_ir.body } ] else []
  in
  let drops =
    if List.length l.Loop_ir.body > 1 then
      List.mapi
        (fun i _ -> { l with Loop_ir.body = drop_nth l.Loop_ir.body i })
        l.Loop_ir.body
    else []
  in
  let simplified =
    List.concat
      (List.mapi
         (fun i s ->
           List.map
             (fun e ->
               {
                 l with
                 Loop_ir.body =
                   replace_nth l.Loop_ir.body i (stmt_with_expr s e);
               })
             (expr_candidates (stmt_expr s)))
         l.Loop_ir.body)
  in
  trips @ reps @ zeroed @ drops @ simplified

let case_candidates (c : Diff.case) =
  let with_loops loops = { c with Diff.loops } in
  let drops =
    if List.length c.Diff.loops > 1 then
      List.mapi (fun i _ -> with_loops (drop_nth c.Diff.loops i)) c.Diff.loops
    else []
  in
  let per_loop =
    List.concat
      (List.mapi
         (fun i l ->
           List.map
             (fun l' -> with_loops (replace_nth c.Diff.loops i l'))
             (loop_candidates l))
         c.Diff.loops)
  in
  (* Keep only candidates the IR validator accepts: shrinking must stay
     inside the compiler's supported class. *)
  List.filter_map
    (fun cand ->
      match List.map Loop_ir.validate cand.Diff.loops with
      | _ -> Some cand
      | exception _ -> None)
    (drops @ per_loop)

(* ------------------------------------------------------------------ *)
(* Greedy first-improvement descent                                    *)
(* ------------------------------------------------------------------ *)

let minimise ?inject ?(max_tries = 600) (c0 : Diff.case)
    (f0 : Diff.failure) =
  let tried = ref 0 in
  let steps = ref 0 in
  let best = ref c0 in
  let best_failure = ref f0 in
  let progress = ref true in
  while !progress && !tried < max_tries do
    progress := false;
    let candidates = case_candidates !best in
    (* First improving candidate wins; restart the pass from it. *)
    let rec try_all = function
      | [] -> ()
      | cand :: rest ->
        if !tried >= max_tries then ()
        else if not (smaller cand !best) then try_all rest
        else begin
          incr tried;
          match Diff.run ?inject cand with
          | Error f ->
            best := cand;
            best_failure := f;
            incr steps;
            progress := true
          | Ok () -> try_all rest
        end
    in
    try_all candidates
  done;
  { case = !best; failure = !best_failure; steps = !steps; tried = !tried }
