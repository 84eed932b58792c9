(* The sink streams to a temp file and renames it into place on [close]:
   a killed or crashing run leaves either no trace file or a previous
   complete one, never a torn JSONL. *)
type t = {
  oc : out_channel;
  path : string;
  temp : string;
  mutable closed : bool;
}

let create ~path =
  (match Filename.dirname path with
  | "" | "." -> ()
  | dir -> Fs.mkdir_p dir);
  let temp = Fs.temp_path path in
  { oc = open_out temp; path; temp; closed = false }

let emit t json =
  if t.closed then invalid_arg "Trace.emit: sink is closed";
  Usched_report.Json.output_line t.oc json

let write t buf =
  if t.closed then invalid_arg "Trace.write: sink is closed";
  Buffer.output_buffer t.oc buf;
  Buffer.clear buf

let path t = t.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc;
    Sys.rename t.temp t.path
  end

let discard t =
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc;
    try Sys.remove t.temp with Sys_error _ -> ()
  end

let with_file ~path f =
  let t = create ~path in
  match f t with
  | v ->
      close t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      discard t;
      Printexc.raise_with_backtrace e bt
