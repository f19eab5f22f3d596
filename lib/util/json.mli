(** Minimal JSON support for the harness's machine-readable artifacts —
    the committed golden-metrics file the CI drift gate compares against,
    the fuzzer's counterexample reports, [occamy-sim --metrics-out]'s
    flat JSON and the performance ledger's result lines. Only the
    fragment those need: serialising flat objects of scalars and parsing
    them back. Also home to {!write_file}, the one function that writes
    an artifact file of any format. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string

val add_quoted : Buffer.t -> string -> unit
(** Append a string as a JSON string literal: quoted, with quotes,
    backslashes and control characters escaped. A string that needs no
    escape is copied as is. *)

val value_to_string : value -> string
(** Numbers print with round-trip precision ([%.17g], integers without a
    fractional part), so write-then-parse is exact. *)

val obj_to_string : (string * value) list -> string
(** A flat object, one [" key": value] pair per entry, pretty-printed
    with one pair per line (stable diffs under version control). *)

val obj_to_line : (string * value) list -> string
(** The same object compact on a single line, no trailing newline — the
    JSONL form the performance ledger prints and writes. *)

val parse_flat_obj : string -> ((string * value) list, string) result
(** Parse a flat JSON object whose values are scalars (the output of
    {!obj_to_string} / {!obj_to_line}). A nested object or an array is
    rejected with an error message — the artifact formats are
    deliberately flat. *)

val write_file : path:string -> string -> unit
(** The one artifact writer: replace the file at [path] with the given
    bytes, creating it if missing. It rewrites in place (no truncation
    to zero first) and then cuts a regular file to the new length, so
    it is not atomic: a reader racing the write, or a crash during it,
    can see old and new bytes mixed. A device or FIFO such as
    [/dev/stdout] is written without the cut, and a symlink is followed,
    never replaced. Raises [Sys_error] as [open_out] does. *)

val read_file : path:string -> (string, string) result
