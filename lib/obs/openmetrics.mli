(** OpenMetrics / Prometheus text-format export of simulation results:
    attribution shares ({!Attrib}) and the flat {!Counters} registry,
    rendered as a scrapeable exposition
    ending in [# EOF]. Families render in the order given and samples
    in the order listed, so exports built from sorted sources (e.g.
    {!Counters.to_list}) are deterministic across runs. *)

type sample = {
  s_labels : (string * string) list;  (** label set, possibly empty *)
  s_value : float;
}

type family = {
  fam_name : string;  (** already sanitized; see {!sanitize} *)
  fam_type : [ `Gauge | `Counter | `Summary ];
  fam_help : string;
  fam_samples : sample list;
}

val sanitize : string -> string
(** Map a dotted counter name to a valid metric name: every character
    outside [[a-zA-Z0-9_:]] becomes ['_'], and a leading digit gets a
    ['_'] prefix. *)

val render : family list -> string
(** The full exposition: [# HELP] / [# TYPE] lines per family, one line
    per sample, terminated by [# EOF]. Counter sample lines get the
    [_total] suffix OpenMetrics requires. *)

val of_counters : ?prefix:string -> Counters.t -> family list
(** One gauge family per counter, named [prefix ^ sanitize name]
    (default prefix ["occamy_"]), in sorted-name order with the
    original dotted name as help text. *)

val of_attrib : Attrib.t -> family list
(** [occamy_attrib_cycles] (counter, labels [core]/[bucket]) and
    [occamy_attrib_share] (gauge, percent of the core's cycles), plus
    [occamy_attrib_window_cycles]. Empty for a disabled recorder. *)

val validate : string -> (unit, string) result
(** Cheap structural parser for tests and CI smoke: every line must be
    a well-formed comment ([# HELP]/[# TYPE]/[# EOF]) or sample line
    with a valid metric name, [# TYPE] must precede its family's
    samples, and the exposition must end with [# EOF]. *)
