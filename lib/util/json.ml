(** Minimal JSON reader/writer for the harness's machine-readable
    artifacts: the golden-metrics drift gate and the fuzzer's
    counterexample reports. Handles exactly the fragment those need — a
    flat object of scalars — with round-trip-exact number printing. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let value_to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num x -> num_to_string x
  | Str s -> "\"" ^ escape s ^ "\""

let obj_to_string pairs =
  let body =
    List.map
      (fun (k, v) ->
        Printf.sprintf "  \"%s\": %s" (escape k) (value_to_string v))
      pairs
  in
  "{\n" ^ String.concat ",\n" body ^ "\n}\n"

let obj_to_line pairs =
  let body =
    List.map
      (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (value_to_string v))
      pairs
  in
  "{" ^ String.concat "," body ^ "}"

(* ------------------------------------------------------------------ *)
(* Parsing (flat objects only)                                         *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_flat_obj s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" !pos m))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | Some c' -> error "expected %c, got %c" c c'
    | None -> error "expected %c, got end of input" c
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then error "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 >= n then error "truncated unicode escape";
               let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
               (* Only the control-char range we ourselves emit. *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else error "non-ASCII unicode escape unsupported";
               pos := !pos + 4
             | c -> error "bad escape \\%c" c);
          incr pos;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_scalar () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some ('{' | '[') -> error "nested structures unsupported (scalar expected)"
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with
           | ',' | '}' | ']' | ' ' | '\t' | '\n' | '\r' -> false
           | _ -> true
      do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      (match tok with
      | "null" -> Null
      | "true" -> Bool true
      | "false" -> Bool false
      | _ -> (
        match float_of_string_opt tok with
        | Some x -> Num x
        | None -> error "bad scalar %S" tok))
    | None -> error "unexpected end of input"
  in
  try
    expect '{';
    skip_ws ();
    let pairs = ref [] in
    (match peek () with
    | Some '}' -> incr pos
    | _ ->
      let rec go () =
        skip_ws ();
        let key = parse_string () in
        expect ':';
        let v = parse_scalar () in
        pairs := (key, v) :: !pairs;
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          go ()
        | Some '}' -> incr pos
        | _ -> error "expected , or }"
      in
      go ());
    skip_ws ();
    if !pos <> n then error "trailing content";
    Ok (List.rev !pairs)
  with
  | Parse_error m -> Error m
  | Failure m -> Error m

let write_file ~path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc content)

let read_file ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Ok (really_input_string ic (in_channel_length ic)))
