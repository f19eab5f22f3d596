(** Minimal JSON support for the harness's machine-readable artifacts —
    the committed golden-metrics file the CI drift gate compares against,
    the fuzzer's counterexample reports, [occamy-sim --metrics-out]'s
    flat JSON and the performance ledger's result lines. Only the
    fragment those need: serialising flat objects of scalars and parsing
    them back. No external dependencies. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string

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
val read_file : path:string -> (string, string) result
