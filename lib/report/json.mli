(** Minimal JSON values, compact serialization, and JSONL output.

    No external dependencies: this backs the observability layer (run
    traces, experiment manifests, bench reports) with machine-readable
    output that `jq` and any JSON library can consume. Serialization is
    deterministic: object fields keep their construction order and floats
    render through {!float_repr}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float : float -> t
(** [Float f], except non-finite values (nan, infinities) become {!Null}
    — JSON has no encoding for them. *)

val to_string : t -> string
(** Compact (single-line, no spaces) rendering. Strings are escaped per
    RFC 8259: quote, backslash, and control characters below [0x20];
    other bytes pass through verbatim (UTF-8 assumed). *)

val float_repr : float -> string
(** The rendering of a finite float: [%.12g] when that parses back to
    the same float, else [%.17g] (always exact for binary64). Integers
    below 10{^12} come out without a fraction or exponent (["3"], not
    ["3."]). Not the shortest round-trip form: [0.1 +. 0.7] renders as
    ["0.79999999999999993"], though ["0.7999999999999999"] parses back
    to it too. One [%.17g] print decides almost every
    non-integral value; the rest pay the three-step rule. *)

val add_float : Buffer.t -> float -> unit
(** {!float_repr}, or [null] for a non-finite value: the bytes
    {!to_string} writes for [Float f]. *)

val add_int : Buffer.t -> int -> unit
(** The decimal digits {!to_string} writes for [Int i]. *)

val output : out_channel -> t -> unit
(** {!to_string} to a channel. *)

val output_line : out_channel -> t -> unit
(** One JSONL record: the compact rendering followed by a newline. *)

val write_file : path:string -> t -> unit
(** The compact rendering (plus trailing newline) as the whole file. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (used by round-trip tests and trace
    consumers). Integers without fraction or exponent parse as [Int],
    everything else numeric as [Float]. [Error msg] carries a byte
    offset. *)

val of_string_exn : string -> t
(** {!of_string}, raising [Invalid_argument] on parse errors. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing fields or non-objects. *)
