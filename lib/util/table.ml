(** Plain-text table rendering for the benchmark harness.

    Every figure/table reproduction prints through this module so that the
    output of [bench/main.exe] lines up in fixed-width columns and can be
    diffed run-to-run. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align list;
  mutable rows : string list list;  (* newest first *)
}

let create ~title ~header ?aligns () =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length header then
        invalid_arg "Table.create: aligns length mismatch";
      a
    | None -> List.map (fun _ -> Right) header
  in
  { title; header; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.header then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

(* Cell formatting helpers. *)
let fcell ?(digits = 2) v = Printf.sprintf "%.*f" digits v
let icell v = string_of_int v
let pcell ?(digits = 1) v = Printf.sprintf "%.*f%%" digits (100.0 *. v)
let xcell ?(digits = 2) v = Printf.sprintf "%.*fx" digits v

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    all;
  let pad align w s =
    let n = w - String.length s in
    if n <= 0 then s
    else
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  let line_of row =
    let cells =
      List.mapi
        (fun i c ->
          let a = List.nth t.aligns i in
          pad a widths.(i) c)
        row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    "|"
    ^ String.concat "|"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line_of t.header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line_of row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t = print_string (render t); print_newline ()
