(* OpenMetrics text exposition. Deliberately dependency-free: the
   format is line-oriented and the writer below sticks to the subset
   the validator checks (HELP/TYPE comments, optional labels, float
   values, trailing "# EOF"). *)

type sample = { s_labels : (string * string) list; s_value : float }

type family = {
  fam_name : string;
  fam_type : [ `Gauge | `Counter | `Summary ];
  fam_help : string;
  fam_samples : sample list;
}

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let sanitize s =
  let s =
    if String.for_all is_name_char s then s
    else String.map (fun c -> if is_name_char c then c else '_') s
  in
  if s = "" then "_" else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s else s

let type_name = function
  | `Gauge -> "gauge"
  | `Counter -> "counter"
  | `Summary -> "summary"

(* Label values and help text share the same escaping rules. *)
let add_escaped b s =
  if not (String.exists (fun c -> c = '\\' || c = '"' || c = '\n') s) then
    Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s

(* [%.0f] of an integral float below 1e15 prints its exact digits, as
   [Int.to_string] does, except for [-0.0], which it prints as "-0". *)
let value_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    if v = 0.0 && Float.sign_bit v then "-0" else Int.to_string (Float.to_int v)
  else Printf.sprintf "%.9g" v

let render families =
  let b = Buffer.create 16384 in
  List.iter
    (fun f ->
      Buffer.add_string b "# HELP ";
      Buffer.add_string b f.fam_name;
      Buffer.add_char b ' ';
      add_escaped b f.fam_help;
      Buffer.add_string b "\n# TYPE ";
      Buffer.add_string b f.fam_name;
      Buffer.add_char b ' ';
      Buffer.add_string b (type_name f.fam_type);
      Buffer.add_char b '\n';
      List.iter
        (fun s ->
          (* OpenMetrics requires the _total suffix on counter samples;
             summaries carry their own _sum/_count suffixes in labels
             passed as part of the family's sample list. *)
          Buffer.add_string b f.fam_name;
          (match f.fam_type with
          | `Counter -> Buffer.add_string b "_total"
          | `Gauge | `Summary ->
            Option.iter (Buffer.add_string b)
              (List.assoc_opt "__suffix__" s.s_labels));
          let first = ref true in
          List.iter
            (fun (k, v) ->
              if k <> "__suffix__" then begin
                Buffer.add_string b (if !first then "{" else ",");
                first := false;
                Buffer.add_string b k;
                Buffer.add_string b "=\"";
                add_escaped b v;
                Buffer.add_char b '"'
              end)
            s.s_labels;
          if not !first then Buffer.add_char b '}';
          Buffer.add_char b ' ';
          Buffer.add_string b (value_str s.s_value);
          Buffer.add_char b '\n')
        f.fam_samples)
    families;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let of_counters ?(prefix = "occamy_") counters =
  List.map
    (fun (name, v) ->
      {
        fam_name = prefix ^ sanitize name;
        fam_type = `Gauge;
        fam_help = name;
        fam_samples = [ { s_labels = []; s_value = v } ];
      })
    (Counters.to_list counters)

let of_attrib a =
  if not (Attrib.enabled a) then []
  else begin
    let per_bucket f =
      List.concat
        (List.init (Attrib.cores a) (fun c ->
             List.map
               (fun b ->
                 {
                   s_labels =
                     [ ("core", string_of_int c); ("bucket", Attrib.name b) ];
                   s_value = f ~core:c b;
                 })
               Attrib.all))
    in
    [
      {
        fam_name = "occamy_attrib_cycles";
        fam_type = `Counter;
        fam_help =
          "simulated cycles attributed to each cause bucket, per core";
        fam_samples =
          per_bucket (fun ~core b ->
              float_of_int (Attrib.count a ~core b));
      };
      {
        fam_name = "occamy_attrib_share";
        fam_type = `Gauge;
        fam_help = "percent of the core's simulated cycles in each bucket";
        fam_samples = per_bucket (fun ~core b -> Attrib.share a ~core b);
      };
      {
        fam_name = "occamy_attrib_window_cycles";
        fam_type = `Gauge;
        fam_help = "time-series sampling window, in simulated cycles";
        fam_samples =
          [ { s_labels = []; s_value = float_of_int (Attrib.window a) } ];
      };
    ]
  end

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let valid_name s =
  s <> ""
  && (not (s.[0] >= '0' && s.[0] <= '9'))
  && String.for_all is_name_char s

(* Parse "name{k="v",...} value" | "name value"; returns the name. *)
let parse_sample_line line =
  let n = String.length line in
  let rec name_end i = if i < n && is_name_char line.[i] then name_end (i + 1) else i in
  let ne = name_end 0 in
  if ne = 0 then Error "missing metric name"
  else begin
    let name = String.sub line 0 ne in
    let after_labels =
      if ne < n && line.[ne] = '{' then begin
        (* scan for the closing brace, honouring escapes in values *)
        let rec scan i in_str =
          if i >= n then Error "unterminated label set"
          else
            match line.[i] with
            | '\\' when in_str -> scan (i + 2) in_str
            | '"' -> scan (i + 1) (not in_str)
            | '}' when not in_str -> Ok (i + 1)
            | _ -> scan (i + 1) in_str
        in
        scan (ne + 1) false
      end
      else Ok ne
    in
    match after_labels with
    | Error e -> Error e
    | Ok i ->
      if i >= n || line.[i] <> ' ' then Error "expected space before value"
      else begin
        let v = String.sub line (i + 1) (n - i - 1) in
        match float_of_string_opt (String.trim v) with
        | Some _ -> Ok name
        | None -> Error (Printf.sprintf "bad value %S" v)
      end
  end

let validate text =
  let lines = String.split_on_char '\n' text in
  let declared = Hashtbl.create 16 in
  let rec go lineno saw_eof = function
    | [] -> if saw_eof then Ok () else Error "missing terminating # EOF"
    | "" :: rest -> go (lineno + 1) saw_eof rest
    | line :: _ when saw_eof ->
      Error (Printf.sprintf "line %d: content after # EOF: %S" lineno line)
    | line :: rest ->
      let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
      if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "EOF" ] -> go (lineno + 1) true rest
        | "#" :: "HELP" :: name :: _ ->
          if valid_name name then go (lineno + 1) saw_eof rest
          else fail ("invalid metric name in HELP: " ^ name)
        | [ "#"; "TYPE"; name; ty ] ->
          if not (valid_name name) then
            fail ("invalid metric name in TYPE: " ^ name)
          else if not (List.mem ty [ "gauge"; "counter"; "summary" ]) then
            fail ("unknown metric type: " ^ ty)
          else begin
            Hashtbl.replace declared name ();
            go (lineno + 1) saw_eof rest
          end
        | _ -> fail ("malformed comment line: " ^ line)
      end
      else begin
        match parse_sample_line line with
        | Error e -> fail (e ^ ": " ^ line)
        | Ok name ->
          if not (valid_name name) then fail ("invalid metric name: " ^ name)
          else begin
            (* the sample must belong to a family declared above it
               (possibly via a counter/summary suffix) *)
            let belongs =
              Hashtbl.mem declared name
              || List.exists
                   (fun suffix ->
                     let base_len = String.length name - String.length suffix in
                     base_len > 0
                     && String.sub name base_len (String.length suffix) = suffix
                     && Hashtbl.mem declared (String.sub name 0 base_len))
                   [ "_total"; "_sum"; "_count"; "_max" ]
            in
            if belongs then go (lineno + 1) saw_eof rest
            else fail ("sample before its # TYPE declaration: " ^ name)
          end
      end
  in
  go 1 false lines
