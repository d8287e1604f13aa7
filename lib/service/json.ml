(* Minimal JSON: canonical printer + total parser for the wire protocol.
   Objects keep construction order so encoders control the byte layout
   (the determinism the smoke scripts compare on). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let max_depth = 256

(* --- printing ----------------------------------------------------------- *)

(* Quote, backslash, the common whitespace escapes, and every other
   control character as \u00XX. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Deterministic float form: integral values keep a ".0" marker so they
   parse back as floats (Int vs Float survives a round trip); everything
   else uses %.12g, enough digits for every value the analyses produce. *)
let float_str f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

let parse_error pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> parse_error c.pos "expected %C, found %C" ch x
  | None -> parse_error c.pos "expected %C, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error c.pos "invalid literal"

let hex_digit pos = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> parse_error pos "invalid \\u escape"

(* \uXXXX: emit UTF-8.  Our own escaper only produces these for control
   characters, but foreign clients may send any code point. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.src then
      parse_error c.pos "unterminated string"
    else
      match c.src.[c.pos] with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          c.pos <- c.pos + 1;
          (if c.pos >= String.length c.src then
             parse_error c.pos "unterminated escape"
           else
             match c.src.[c.pos] with
             | '"' -> Buffer.add_char buf '"'; c.pos <- c.pos + 1
             | '\\' -> Buffer.add_char buf '\\'; c.pos <- c.pos + 1
             | '/' -> Buffer.add_char buf '/'; c.pos <- c.pos + 1
             | 'n' -> Buffer.add_char buf '\n'; c.pos <- c.pos + 1
             | 'r' -> Buffer.add_char buf '\r'; c.pos <- c.pos + 1
             | 't' -> Buffer.add_char buf '\t'; c.pos <- c.pos + 1
             | 'b' -> Buffer.add_char buf '\b'; c.pos <- c.pos + 1
             | 'f' -> Buffer.add_char buf '\012'; c.pos <- c.pos + 1
             | 'u' ->
                 if c.pos + 4 >= String.length c.src then
                   parse_error c.pos "truncated \\u escape";
                 let d i = hex_digit c.pos c.src.[c.pos + 1 + i] in
                 add_utf8 buf ((d 0 lsl 12) lor (d 1 lsl 8) lor (d 2 lsl 4) lor d 3);
                 c.pos <- c.pos + 5
             | ch -> parse_error c.pos "invalid escape \\%C" ch);
          loop ()
      | ch when Char.code ch < 0x20 ->
          parse_error c.pos "unescaped control character"
      | ch ->
          Buffer.add_char buf ch;
          c.pos <- c.pos + 1;
          loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  let digits () =
    let d0 = c.pos in
    while
      c.pos < String.length c.src
      && match c.src.[c.pos] with '0' .. '9' -> true | _ -> false
    do
      c.pos <- c.pos + 1
    done;
    if c.pos = d0 then parse_error c.pos "expected digit"
  in
  digits ();
  if peek c = Some '.' then begin
    is_float := true;
    c.pos <- c.pos + 1;
    digits ()
  end;
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      c.pos <- c.pos + 1;
      (match peek c with
      | Some ('+' | '-') -> c.pos <- c.pos + 1
      | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub c.src start (c.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value c depth =
  if depth > max_depth then parse_error c.pos "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> parse_error c.pos "expected a value, found end of input"
  | Some '"' -> String (parse_string c)
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c (depth + 1) in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> parse_error c.pos "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields (kv :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev (kv :: acc)
          | _ -> parse_error c.pos "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some ch -> parse_error c.pos "unexpected character %C" ch

let of_string src =
  let c = { src; pos = 0 } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    (match peek c with
    | Some ch -> parse_error c.pos "trailing garbage %C" ch
    | None -> ());
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
  (* float_of_string on a syntactically valid number cannot fail, but
     totality here is load-bearing: a parse must never kill the daemon. *)
  | exception exn -> Error (Printexc.to_string exn)

(* --- accessors ---------------------------------------------------------- *)

let member key = function
  | Obj fields ->
      List.fold_left
        (fun acc (k, v) -> if k = key then Some v else acc)
        None fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
