type t = {
  id : int;
  name : string;
  layer : string;
  parent : int;
  op : int;
  start_ns : int;
  stop_ns : int;
}

let on = ref false
let closed = ref []
let open_ids = ref []
let next_id = ref 0
let current_op = ref (-1)
let set_recording b = on := b
let recording () = !on
let set_op op = current_op := op
let now_ns () = Int64.to_int (Occamy_obs.Prof.clock_ns ())

let with_ ~layer name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    open_ids := id :: !open_ids;
    let start_ns = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop_ns = now_ns () in
        open_ids := List.tl !open_ids;
        closed := { id; name; layer; parent; op; start_ns; stop_ns } :: !closed)
  end

let recorded () = List.sort (fun a b -> compare a.id b.id) !closed

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc + b - max a reach, b))
      (0, lo) clipped
  in
  total

let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start_ns, s.stop_ns))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let dur = s.stop_ns - s.start_ns in
      (s, dur - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    spans

let by_layer spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let calls, ns =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl s.layer)
      in
      Hashtbl.replace tbl s.layer (calls + 1, ns + self))
    (self_ns spans);
  Hashtbl.fold (fun layer (calls, ns) acc -> (layer, calls, ns) :: acc) tbl []
  |> List.sort compare

let to_jsonl spans =
  let module Json = Occamy_util.Json in
  let num i = Json.Num (float_of_int i) in
  String.concat ""
    (List.map
       (fun s ->
         Json.obj_to_line
           [
             ("id", num s.id);
             ("name", Json.Str s.name);
             ("layer", Json.Str s.layer);
             ("parent", num s.parent);
             ("op", num s.op);
             ("start_ns", num s.start_ns);
             ("end_ns", num s.stop_ns);
           ]
         ^ "\n")
       spans)
