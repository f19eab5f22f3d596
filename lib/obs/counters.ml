(** A named counter/gauge registry.

    Dotted names ("core1.issued_compute", "mem.dram.bytes") form a flat
    namespace that experiments and tests query with {!get} instead of
    pattern-matching result records; {!Occamy_core.Metrics.counters}
    populates one from a simulation result. Counters are monotonically
    incremented integers reported as floats; gauges are set directly. *)

type t = { cells : (string, float ref) Hashtbl.t }

let create () = { cells = Hashtbl.create 64 }

let cell t name =
  match Hashtbl.find_opt t.cells name with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.replace t.cells name r;
    r

let set t name v = cell t name := v

let get t name = Option.map ( ! ) (Hashtbl.find_opt t.cells name)

let get_exn t name =
  match get t name with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Counters.get_exn: no counter named %S" name)

(** All [(name, value)] pairs, sorted by name. *)
let to_list t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.cells [])

(** Flat JSON object fields in sorted-name order: the stable iteration
    order the JSON and OpenMetrics exporters rely on for deterministic,
    diffable output. *)
let to_json t =
  List.map (fun (k, v) -> (k, Occamy_util.Json.Num v)) (to_list t)
