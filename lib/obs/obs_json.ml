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

let escape buf s =
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
    s

let add_string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

(* NaN and the infinities have no JSON token ("%.17g" would print
   "nan"/"inf", which no parser accepts), so they all become null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
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

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %c at offset %d, got %c" c !pos c'
    | None -> fail "expected %c at offset %d, got end of input" c !pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail "bad \\u escape %s" hex
          in
          (* The writer only escapes control characters; everything it
             emits is below 0x80. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else fail "unsupported \\u escape %s" hex;
          pos := !pos + 4
        | _ -> fail "bad escape at offset %d" !pos);
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number %S at offset %d" text start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
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
