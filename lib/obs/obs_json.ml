(** The tree's one JSON module (see obs_json.mli).  The toolchain carries
    no JSON library; journals must round-trip bit for bit, so the writer
    prints finite floats with ["%.17g"], which reconstructs every IEEE
    double exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* -- writer ---------------------------------------------------------------- *)

(* Runs of bytes that need no escape are copied whole. *)
let escape buf s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s start (i - start);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

let add_string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

(* NaN and the infinities have no JSON token ("%.17g" would print
   "nan"/"inf", which no parser accepts), so they all become null.  An
   integral float below 1e15 prints as "%.1f" would, byte for byte, but
   through string_of_int at a fifth of Printf's cost: grid values and
   counts fill journal headers and catalog keys.  Negative zero is the
   one such value string_of_int cannot sign. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0.0"
    else string_of_int (int_of_float f) ^ ".0"
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s -> add_string buf s
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
        add_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* -- parser ---------------------------------------------------------------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* The parser reads the input through a cursor, one byte at a time as an
   int, -1 at the end of input: nothing is allocated per byte. *)
type cursor = { s : string; n : int; mutable pos : int }

let peek c = if c.pos < c.n then Char.code (String.unsafe_get c.s c.pos) else -1

let rec skip_ws c =
  match peek c with
  | 0x20 | 0x09 | 0x0a | 0x0d ->
    c.pos <- c.pos + 1;
    skip_ws c
  | _ -> ()

let expect c ch =
  let b = peek c in
  if b = Char.code ch then c.pos <- c.pos + 1
  else if b < 0 then fail "expected %c at offset %d, got end of input" ch c.pos
  else fail "expected %c at offset %d, got %c" ch c.pos (Char.unsafe_chr b)

let literal c word v =
  let len = String.length word in
  if c.pos + len <= c.n && String.sub c.s c.pos len = word then begin
    c.pos <- c.pos + len;
    v
  end
  else fail "bad literal at offset %d" c.pos

(* The first index from [i] holding a quote or a backslash, else [n]. *)
let rec plain_run s i n =
  if i >= n then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> plain_run s (i + 1) n

(* The rest of a string from the cursor, escapes decoded: plain runs are
   copied whole. *)
let rec unescape c buf =
  let i = plain_run c.s c.pos c.n in
  Buffer.add_substring buf c.s c.pos (i - c.pos);
  c.pos <- i;
  if i >= c.n then fail "unterminated string"
  else if String.unsafe_get c.s i = '"' then begin
    c.pos <- i + 1;
    Buffer.contents buf
  end
  else begin
    c.pos <- i + 1;
    let b = peek c in
    if b < 0 then fail "bad escape at offset %d" c.pos;
    (match Char.unsafe_chr b with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'u' ->
      if c.pos + 4 >= c.n then fail "truncated \\u escape";
      let hex = String.sub c.s (c.pos + 1) 4 in
      let code =
        match int_of_string_opt ("0x" ^ hex) with
        | Some code -> code
        | None -> fail "bad \\u escape %s" hex
      in
      (* The writer only escapes control characters; everything it
         emits is below 0x80. *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else fail "unsupported \\u escape %s" hex;
      c.pos <- c.pos + 4
    | _ -> fail "bad escape at offset %d" c.pos);
    c.pos <- c.pos + 1;
    unescape c buf
  end

(* A string with no escape in it is one slice of the input. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let i = plain_run c.s start c.n in
  if i < c.n && String.unsafe_get c.s i = '"' then begin
    c.pos <- i + 1;
    String.sub c.s start (i - start)
  end
  else unescape c (Buffer.create 16)

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* No int text holds '.', 'e' or 'E' (hex needs an 'x'), so a text that
   does skips [int_of_string], whose failure raises. *)
let rec int_shaped s i stop =
  i = stop
  || (match String.unsafe_get s i with
     | '.' | 'e' | 'E' -> false
     | _ -> int_shaped s (i + 1) stop)

let parse_number c =
  let start = c.pos in
  while c.pos < c.n && is_num_char (String.unsafe_get c.s c.pos) do
    c.pos <- c.pos + 1
  done;
  let text = String.sub c.s start (c.pos - start) in
  match if int_shaped c.s start c.pos then int_of_string_opt text else None with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail "bad number %S at offset %d" text start)

let rec parse_value c =
  skip_ws c;
  let b = peek c in
  if b < 0 then fail "unexpected end of input";
  match Char.unsafe_chr b with
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Char.code ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else List (items c [ parse_value c ])
  | '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Char.code '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else Obj (fields c [ field c ])
  | _ -> parse_number c

and items c acc =
  skip_ws c;
  if peek c = Char.code ',' then begin
    c.pos <- c.pos + 1;
    items c (parse_value c :: acc)
  end
  else begin
    expect c ']';
    List.rev acc
  end

and field c =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  (k, parse_value c)

and fields c acc =
  skip_ws c;
  if peek c = Char.code ',' then begin
    c.pos <- c.pos + 1;
    fields c (field c :: acc)
  end
  else begin
    expect c '}';
    List.rev acc
  end

let parse s =
  let c = { s; n = String.length s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> c.n then Error (Printf.sprintf "trailing input at offset %d" c.pos)
    else Ok v
  | exception Bad msg -> Error msg

(* -- accessors ------------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

(* -- readers --------------------------------------------------------------- *)

type 'a read = t -> ('a, string) result

let ( let* ) = Result.bind

let expecting what get j =
  match get j with Some v -> Ok v | None -> Error ("expected " ^ what)

let str = expecting "a string" to_str
let int = expecting "an integer" to_int
let float = expecting "a number" to_float
let list = expecting "a list" to_list
let obj = expecting "an object" (function Obj fields -> Some fields | _ -> None)

let within what r j = Result.map_error (fun e -> what ^ ": " ^ e) (r j)

let in_field name r v =
  Result.map_error (fun e -> Printf.sprintf "field %S: %s" name e) (r v)

let field name r j =
  match member name j with
  | Some v -> in_field name r v
  | None -> Error (Printf.sprintf "missing field %S" name)

let field_or name default r j =
  match member name j with
  | Some v -> in_field name r v
  | None -> Ok default

let each f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = f x in
      go (y :: acc) rest
  in
  go [] xs

(* -- JSON-lines files ------------------------------------------------------- *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go n acc =
        match input_line ic with
        | line when String.trim line = "" -> go (n + 1) acc
        | line -> go (n + 1) ((n, line) :: acc)
        | exception End_of_file -> List.rev acc
      in
      go 1 [])

(* A writer killed mid-line leaves a partial last line: a failure there
   is that torn write, skipped and counted (its writer produces it
   again).  A failure anywhere earlier is corruption and stays an error:
   silently dropping an interior line would lose data the file was
   trusted to hold. *)
let decode_lines ~path decode lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc, 0)
    | (n, line) :: rest -> (
      match decode line with
      | Ok v -> go (v :: acc) rest
      | Error _ when rest = [] -> Ok (List.rev acc, 1)
      | Error msg -> Error (Printf.sprintf "%s:%d: %s" path n msg))
  in
  go [] lines

let write_lines path lines =
  (* Renaming over a symlink, a FIFO or /dev/stdout would replace it, so
     only a regular file (or a new one) is replaced atomically. *)
  let atomic =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_REG -> true
    | _ -> false
    | exception Unix.Unix_error _ -> true
  in
  let tmp = if atomic then path ^ ".tmp" else path in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines;
      flush oc);
  if atomic then Sys.rename tmp path

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let append_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc
