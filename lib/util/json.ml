(** Minimal JSON reader/writer for the harness's machine-readable
    artifacts: the golden-metrics drift gate and the fuzzer's
    counterexample reports. Handles exactly the fragment those need — a
    flat object of scalars — with round-trip-exact number printing —
    and holds the one artifact file writer. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_quoted b s =
  Buffer.add_char b '"';
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

(* [%.0f] of an integral float below 1e15 prints its exact digits, as
   [Int.to_string] does, except for [-0.0], which it prints as "-0". *)
let num_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0.0 && Float.sign_bit x then "-0" else Int.to_string (Float.to_int x)
  else Printf.sprintf "%.17g" x

let quote s =
  let b = Buffer.create (String.length s + 2) in
  add_quoted b s;
  Buffer.contents b

let value_to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num x -> num_to_string x
  | Str s -> quote s

(* One small string per pair joined once: the object is allocated at its
   exact size, where a growing [Buffer] would leave several larger
   copies behind in the major heap. *)
let obj_to_string pairs =
  String.concat ""
    [
      "{\n";
      String.concat ",\n"
        (List.map (fun (k, v) -> "  " ^ quote k ^ ": " ^ value_to_string v)
           pairs);
      "\n}\n";
    ]

let obj_to_line pairs =
  String.concat ""
    [
      "{";
      String.concat ","
        (List.map (fun (k, v) -> quote k ^ ":" ^ value_to_string v) pairs);
      "}";
    ]

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

(* Rewrite in place: truncating an existing file to zero before
   rewriting it makes ext4 (auto_da_alloc) start writeback on close,
   which costs far more than the write. Writing over the old bytes and
   then cutting a longer regular file to the new length leaves the same
   content; [ftruncate] is skipped when there is no tail to cut, as it
   costs as much as the write itself. A device or FIFO (e.g.
   /dev/stdout) has no length to cut. *)
let write_file ~path content =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o666 path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc content;
      flush oc;
      let fd = Unix.descr_of_out_channel oc and len = String.length content in
      (try
         let st = Unix.fstat fd in
         if st.Unix.st_kind = Unix.S_REG && st.Unix.st_size > len then
           Unix.ftruncate fd len
       with Unix.Unix_error (e, _, _) ->
         raise (Sys_error (path ^ ": " ^ Unix.error_message e)));
      close_out oc)

let read_file ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Ok (really_input_string ic (in_channel_length ic)))
