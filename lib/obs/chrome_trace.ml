(** Exporters: Chrome/Perfetto trace-event JSON and a flat CSV dump.

    The JSON follows the Trace Event Format's JSON-object form
    ([{"traceEvents": [...]}]) so `chrome://tracing` and
    https://ui.perfetto.dev load it directly. Mapping:

    - one pid (0) for the whole run, one tid per trace track, named via
      ["thread_name"] metadata events — one lane per core plus the
      LaneMgr lane;
    - phase and sweep-task spans become "B"/"E" duration events;
    - rename-stall and reconfig-blocked episodes become "X" complete
      events with their recorded start and duration;
    - everything else becomes a thread-scoped "i" instant event carrying
      the event payload in ["args"].

    Timestamps are microseconds in the format; we map 1 cycle = 1 us. *)

module Json = Occamy_util.Json

let add_int b n = Buffer.add_string b (Int.to_string n)

(* The head of one trace-event object, through its [tid]; the caller
   appends the remaining fields and the closing brace. *)
let add_head b ~name ~ph ~tid =
  Buffer.add_string b "{\"name\":";
  Json.add_quoted b name;
  Buffer.add_string b ",\"ph\":\"";
  Buffer.add_string b ph;
  Buffer.add_string b "\",\"pid\":0,\"tid\":";
  add_int b tid

(* One trace-event JSON object. [ts]/[dur] are ints (cycles ~ us);
   metadata ("M") events carry no timestamp. *)
let add_obj b ~name ~ph ~ts ?dur ~tid ?args () =
  add_head b ~name ~ph ~tid;
  if ph <> "M" then begin
    Buffer.add_string b ",\"ts\":";
    add_int b ts
  end;
  (match dur with
  | Some d ->
    Buffer.add_string b ",\"dur\":";
    add_int b d
  | None -> ());
  if ph = "i" then Buffer.add_string b ",\"s\":\"t\"";
  (match args with
  | Some a ->
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Json.add_quoted b k;
        Buffer.add_char b ':';
        Json.add_quoted b v)
      a;
    Buffer.add_char b '}'
  | None -> ());
  Buffer.add_char b '}'

let add_event b ~tid ~cycle (ev : Event.t) =
  match ev with
  | Event.Phase_begin { phase; _ } ->
    add_obj b ~name:phase ~ph:"B" ~ts:cycle ~tid ~args:(Event.args ev) ()
  | Event.Phase_end { phase; _ } ->
    add_obj b ~name:phase ~ph:"E" ~ts:cycle ~tid ()
  | Event.Task_begin { label; _ } ->
    add_obj b ~name:label ~ph:"B" ~ts:cycle ~tid ~args:(Event.args ev) ()
  | Event.Task_end { label; _ } ->
    add_obj b ~name:label ~ph:"E" ~ts:cycle ~tid ()
  | Event.Rename_stall { start_cycle; cycles; _ } ->
    add_obj b ~name:"rename-stall" ~ph:"X" ~ts:start_cycle
      ~dur:(max 1 cycles) ~tid ~args:(Event.args ev) ()
  | Event.Reconfig_blocked { start_cycle; cycles; _ } ->
    add_obj b ~name:"reconfig-blocked" ~ph:"X" ~ts:start_cycle
      ~dur:(max 1 cycles) ~tid ~args:(Event.args ev) ()
  | ev ->
    add_obj b ~name:(Event.kind ev) ~ph:"i" ~ts:cycle ~tid
      ~args:(Event.args ev) ()

(* One counter ("C") event per completed attribution window (stamped at
   the window's end cycle) plus the final partial window: a stacked
   cycles-per-bucket track Perfetto draws alongside the span lanes.
   Counter args need *numeric* values to chart — string values would
   render as flat zero lines. *)
let add_attrib_counters b ~sep a =
  if Attrib.enabled a then begin
    let event (end_cycle, deltas) =
      sep ();
      add_head b ~name:"attrib (cycles/window)" ~ph:"C" ~tid:0;
      Buffer.add_string b ",\"ts\":";
      add_int b end_cycle;
      Buffer.add_string b ",\"args\":{";
      let first = ref true in
      List.iter
        (fun bucket ->
          let v = deltas.(Attrib.index bucket) in
          if v <> 0 then begin
            if !first then first := false else Buffer.add_char b ',';
            Json.add_quoted b (Attrib.name bucket);
            Buffer.add_char b ':';
            add_int b v
          end)
        Attrib.all;
      Buffer.add_string b "}}"
    in
    List.iter event (Attrib.samples a);
    Option.iter event (Attrib.pending a)
  end

let to_json ?(attrib = Attrib.disabled) trace =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  for track = 0 to Trace.num_tracks trace - 1 do
    sep ();
    add_obj b ~name:"thread_name" ~ph:"M" ~ts:0 ~tid:track
      ~args:[ ("name", Trace.track_name trace ~track) ]
      ()
  done;
  add_attrib_counters b ~sep attrib;
  Trace.iter trace (fun ~track ~cycle ev ->
      sep ();
      add_event b ~tid:track ~cycle ev);
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(** Flat event dump: one row per event, payload as [k=v|k=v] (values are
    comma-free by the {!Event.args} contract). *)
let to_csv trace =
  let b = Buffer.create 16384 in
  Buffer.add_string b "track,cycle,event,core,args\n";
  Trace.iter trace (fun ~track ~cycle ev ->
      Buffer.add_string b (Trace.track_name trace ~track);
      Buffer.add_char b ',';
      add_int b cycle;
      Buffer.add_char b ',';
      Buffer.add_string b (Event.kind ev);
      Buffer.add_char b ',';
      Option.iter (add_int b) (Event.core ev);
      Buffer.add_char b ',';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b '|';
          Buffer.add_string b k;
          Buffer.add_char b '=';
          Buffer.add_string b v)
        (Event.args ev);
      Buffer.add_char b '\n');
  Buffer.contents b

let write_json ?attrib ~path trace =
  Json.write_file ~path (to_json ?attrib trace)

let write_csv ~path trace = Json.write_file ~path (to_csv trace)
