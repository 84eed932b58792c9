(** Structured run tracing: a JSONL sink.

    One JSON object per line ([jq]-friendly), written through
    [Usched_report.Json]. Sinks create missing parent directories with
    {!Fs.mkdir_p} and are {e crash-safe}: records stream to a temp file
    ({!Fs.temp_path}) that is renamed over the target only at {!close},
    so an interrupted run never leaves a torn trace behind. Consumers:
    [usched solve --trace FILE] streams engine events through {!write}
    and adds metrics snapshots through {!emit}; the experiment runner
    writes per-run manifests. (Not to be confused with
    [Usched_faults.Trace], the failure history of a simulated run.) *)

type t

val create : path:string -> t
(** Open a temp file next to [path] for writing, creating parent
    directories. [path] itself is only touched at {!close}. *)

val emit : t -> Usched_report.Json.t -> unit
(** Append one record as a single line. Raises [Invalid_argument] on a
    closed (or discarded) sink. *)

val write : t -> Buffer.t -> unit
(** Append the buffer's bytes verbatim and clear the buffer: the raw
    path for records serialized elsewhere, which must be whole lines
    (each ending in a newline). A caller streaming many records into
    one buffer calls this whenever it grows large, and once before the
    next {!emit}, so records keep their order. Raises
    [Invalid_argument] on a closed (or discarded) sink. *)

val path : t -> string

val close : t -> unit
(** Flush, close, and atomically rename the temp file over the target;
    idempotent. *)

val discard : t -> unit
(** Close and delete the temp file without publishing anything; the
    target path keeps whatever it had before. Idempotent, and a no-op
    after {!close}. *)

val with_file : path:string -> (t -> 'a) -> 'a
(** Bracketed {!create}/{!close}; if the callback raises, the sink is
    {!discard}ed (no partial file) and the exception re-raised. *)
