(** Minimal CSV writing (RFC 4180 quoting).

    Experiments can dump their raw series for external plotting. *)

val escape : string -> string
(** Quote a field if it contains a comma, quote, or newline. *)

val row : string list -> string
(** One CSV line (no trailing newline). *)

val to_string : header:string list -> string list list -> string
(** Full document with header line. Raises [Invalid_argument] if a row's
    arity differs from the header. *)
