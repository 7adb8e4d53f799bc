(** JSON values, one compact printer and one parser: every JSON and
    SARIF document the tools write is a {!t} printed by {!to_string},
    and every one they read goes through {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float  (** decimals, value; [null] if not finite *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact JSON.  Strings escape the quote, the backslash and bytes
    below 0x20; every other byte passes through, so UTF-8 stays UTF-8. *)

val parse : string -> (t, string) result
(** Any RFC 8259 text, or an [Error] naming the byte offset where it
    stops being one.  Escapes ([\u] surrogate pairs included) decode to
    UTF-8 and other string bytes are kept, so strings of any bytes
    survive {!to_string}.  An integer that fits an [int] is an [Int];
    any other number is a [Fixed] counting its fraction digits. *)
