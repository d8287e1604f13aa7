(** Minimal JSON values for the service wire protocol.

    The repository deliberately has no JSON dependency.  The wire
    protocol needs to both write and {e read} JSON, so this module
    provides the one value type both directions share: a printer whose
    output is canonical (no whitespace, fields in construction order,
    deterministic float rendering — byte-identical output for equal
    values) and a total recursive-descent parser that returns [Error]
    on any malformed input, including pathological nesting, instead of
    raising.

    Not a general JSON library: objects preserve construction order and
    duplicate keys are not rejected (last wins on lookup), which is all
    the versioned protocol needs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Canonical rendering: no whitespace, object fields in construction
    order, integers bare, floats via a deterministic shortest-ish form
    (integral values as ["1.0"], otherwise ["%.12g"]); non-finite
    floats render as [null] (JSON has no representation for them).
    Strings escape the quote, the backslash, newline, carriage return
    and tab, and write every other control character as a [u00XX]
    escape. *)

val escape : string -> string
(** The body of the string literal {!to_string} writes for a string,
    without its quotes (the string itself when nothing needs escaping). *)

val of_string : string -> (t, string) result
(** Total parse of one JSON value; trailing non-whitespace, unterminated
    constructs, bad escapes, and nesting deeper than {!max_depth} are
    [Error] with a position-carrying message, never an exception. *)

val max_depth : int
(** Nesting bound for the parser (an adversarial frame like
    ["\[\[\[..."] must produce an error, not a stack overflow). *)

(** {1 Accessors} — total lookups used by the protocol decoders. *)

val member : string -> t -> t option
(** Field of an [Obj] ([None] for other constructors / missing key;
    last binding wins). *)

val to_int : t -> int option
val to_float : t -> float option
(** [Int] values coerce to float. *)

val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
