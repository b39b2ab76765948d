(** Parser for the textual PIR syntax produced by {!Pp}.

    The grammar is line-oriented:

    {v
    ; program <name> (entry @<func>)
    func @<name>(<param>, ...) {
    <label>:
      %d = add %a, 3
      %d = alloc %n
      %d = load %base[%idx]
      store %base[%idx] := %v
      %d = call @f(%x, 1)
      prim !work(5)
      jump <label>
      br %c ? <label> : <label>
      ret %x
    }
    v}

    [parse] accepts everything [Pp.pp_program] emits (a round-trip
    property covered by the test suite), plus blank lines and [;]
    comments anywhere. *)

open Types

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* -- lexing of one line --------------------------------------------------- *)

type token =
  | Ident of string      (* bare word: opcodes, labels *)
  | Register of string   (* %name *)
  | Global of string     (* @name *)
  | Bang of string       (* !name *)
  | Num of string        (* integer or float literal *)
  | Punct of char        (* ( ) [ ] { } , : ? = *)
  | Assign_mem           (* := *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$' || c = '-'

let is_num_start c = (c >= '0' && c <= '9') || c = '-' || c = '+'

let tokenize lineno s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let read_word start =
    let j = ref start in
    while !j < n && is_ident_char s.[!j] do incr j done;
    let w = String.sub s start (!j - start) in
    i := !j;
    w
  in
  (try
     while !i < n do
       let c = s.[!i] in
       if c = ' ' || c = '\t' then incr i
       else if c = ';' then raise Exit (* comment to end of line *)
       else if c = '%' then begin
         incr i;
         toks := Register (read_word !i) :: !toks
       end
       else if c = '@' then begin
         incr i;
         toks := Global (read_word !i) :: !toks
       end
       else if c = '!' then begin
         (* Primitive names may contain ':' (taint:<param>). *)
         incr i;
         let start = !i in
         while !i < n && (is_ident_char s.[!i] || s.[!i] = ':') do incr i done;
         toks := Bang (String.sub s start (!i - start)) :: !toks
       end
       else if c = ':' && !i + 1 < n && s.[!i + 1] = '=' then begin
         i := !i + 2;
         toks := Assign_mem :: !toks
       end
       else if is_num_start c && (c <> '-' || (!i + 1 < n && (s.[!i + 1] >= '0' && s.[!i + 1] <= '9')))
       then begin
         let start = !i in
         incr i;
         while
           !i < n
           && ((s.[!i] >= '0' && s.[!i] <= '9')
               || s.[!i] = '.' || s.[!i] = 'e' || s.[!i] = 'E'
               || ((s.[!i] = '-' || s.[!i] = '+')
                   && (s.[!i - 1] = 'e' || s.[!i - 1] = 'E')))
         do
           incr i
         done;
         toks := Num (String.sub s start (!i - start)) :: !toks
       end
       else if is_ident_char c then toks := Ident (read_word !i) :: !toks
       else if String.contains "()[]{},:?=" c then begin
         incr i;
         toks := Punct c :: !toks
       end
       else fail lineno "unexpected character %c" c
     done
   with Exit -> ());
  List.rev !toks

(* -- parsing --------------------------------------------------------------- *)

let binop_of_name = function
  | "add" -> Some Add | "sub" -> Some Sub | "mul" -> Some Mul
  | "div" -> Some Div | "rem" -> Some Rem
  | "fadd" -> Some FAdd | "fsub" -> Some FSub | "fmul" -> Some FMul
  | "fdiv" -> Some FDiv
  | "eq" -> Some Eq | "ne" -> Some Ne | "lt" -> Some Lt | "le" -> Some Le
  | "gt" -> Some Gt | "ge" -> Some Ge
  | "and" -> Some And | "or" -> Some Or
  | "min" -> Some Min | "max" -> Some Max
  | "fmin" -> Some FMin | "fmax" -> Some FMax
  | _ -> None

let unop_of_name = function
  | "neg" -> Some Neg | "fneg" -> Some FNeg | "not" -> Some Not
  | "float" -> Some FloatOfInt | "int" -> Some IntOfFloat
  | _ -> None

let operand_of_token line = function
  | Register r -> Reg r
  | Num s -> (
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      (* Digits with an optional sign are an integer literal even when
         they do not fit: refuse them rather than read them as a float
         ({!Pp.float_literal} always prints a '.', an exponent, nan or
         inf). *)
      let digits = String.sub s 1 (String.length s - 1) in
      if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
      then
        fail line "integer literal %s is out of range [%d, %d]" s min_int
          max_int
      else (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail line "bad numeric literal %s" s))
  | Ident "true" -> Bool true
  | Ident "false" -> Bool false
  (* Non-finite float literals as printed by {!Pp.float_literal}; "-inf"
     lexes as one identifier because '-' is an identifier character. *)
  | Ident "nan" -> Float Float.nan
  | Ident "inf" -> Float Float.infinity
  | Ident "-inf" -> Float Float.neg_infinity
  | Punct '(' -> Unit (* "()" handled by caller *)
  | Ident w -> fail line "expected operand, got %s" w
  | _ -> fail line "expected operand"

(* Operand lists: comma-separated, possibly "()" for unit. *)
let rec parse_operands line = function
  | [] -> []
  | Punct '(' :: Punct ')' :: rest -> Unit :: parse_operands_tail line rest
  | tok :: rest -> operand_of_token line tok :: parse_operands_tail line rest

and parse_operands_tail line = function
  | [] -> []
  | Punct ',' :: rest -> parse_operands line rest
  | t :: _ ->
    ignore t;
    fail line "expected , between operands"

let parse_call_args line toks =
  match toks with
  | Punct '(' :: rest ->
    let rec strip_close acc = function
      | [ Punct ')' ] -> List.rev acc
      | t :: rest -> strip_close (t :: acc) rest
      | [] -> fail line "missing )"
    in
    let inner = strip_close [] rest in
    if inner = [] then [] else parse_operands line inner
  | _ -> fail line "expected ("

(* One operand from a token list, returning the rest. *)
let take_operand line = function
  | Punct '(' :: Punct ')' :: rest -> (Unit, rest)
  | tok :: rest -> (operand_of_token line tok, rest)
  | [] -> fail line "expected operand"

let parse_simple_instr line toks =
  (* Instructions without a destination: store, call, prim. *)
  match toks with
  | Ident "store" :: rest -> (
    (* store <base>[<idx>] := <v> *)
    let base, rest = take_operand line rest in
    match rest with
    | Punct '[' :: rest -> (
      let idx, rest = take_operand line rest in
      match rest with
      | Punct ']' :: Assign_mem :: rest ->
        let v, rest = take_operand line rest in
        if rest <> [] then fail line "trailing tokens after store";
        Store (base, idx, v)
      | _ -> fail line "malformed store")
    | _ -> fail line "malformed store")
  | Ident "call" :: Global f :: rest -> Call (None, f, parse_call_args line rest)
  | Ident "prim" :: Bang p :: rest -> Prim (None, p, parse_call_args line rest)
  | _ -> fail line "unknown instruction"

let parse_assigned_instr line dst toks =
  match toks with
  | Ident "alloc" :: rest ->
    let n, rest = take_operand line rest in
    if rest <> [] then fail line "trailing tokens after alloc";
    Alloc (dst, n)
  | Ident "load" :: rest -> (
    let base, rest = take_operand line rest in
    match rest with
    | Punct '[' :: rest -> (
      let idx, rest = take_operand line rest in
      match rest with
      | [ Punct ']' ] -> Load (dst, base, idx)
      | _ -> fail line "malformed load")
    | _ -> fail line "malformed load")
  | Ident "call" :: Global f :: rest ->
    Call (Some dst, f, parse_call_args line rest)
  | Ident "prim" :: Bang p :: rest ->
    Prim (Some dst, p, parse_call_args line rest)
  | Ident op :: rest -> (
    match binop_of_name op with
    | Some bop -> (
      let a, rest = take_operand line rest in
      match rest with
      | Punct ',' :: rest ->
        let b, rest = take_operand line rest in
        if rest <> [] then fail line "trailing tokens after binop";
        Binop (dst, bop, a, b)
      | _ -> fail line "expected , in binop")
    | None -> (
      match unop_of_name op with
      | Some uop ->
        let a, rest = take_operand line rest in
        if rest <> [] then fail line "trailing tokens after unop";
        Unop (dst, uop, a)
      | None when rest = [] ->
        (* A bare word on the right-hand side: a literal operand such as
           true/false. *)
        Assign (dst, operand_of_token line (Ident op))
      | None -> fail line "unknown opcode %s" op))
  | _ ->
    (* %d = <operand> : a plain assignment *)
    let a, rest = take_operand line toks in
    if rest <> [] then fail line "trailing tokens after assignment";
    Assign (dst, a)

let parse_terminator line toks =
  match toks with
  | Ident "jump" :: Ident l :: [] -> Jump l
  | Ident "br" :: rest -> (
    let c, rest = take_operand line rest in
    match rest with
    | Punct '?' :: Ident t :: Punct ':' :: Ident e :: [] -> Branch (c, t, e)
    | _ -> fail line "malformed br")
  | Ident "ret" :: rest ->
    let v, rest = take_operand line rest in
    if rest <> [] then fail line "trailing tokens after ret";
    Return v
  | _ -> fail line "expected terminator"

type pstate = {
  mutable cur_func : (string * string list) option;
  mutable cur_blocks : block list;       (* reversed *)
  mutable cur_label : string option;
  mutable cur_instrs : instr list;       (* reversed *)
  mutable funcs : func list;             (* reversed *)
  mutable pname : string;
  mutable entry : string;
}

let close_block st line =
  match (st.cur_label, st.cur_instrs) with
  | None, [] -> ()
  | None, _ -> fail line "instructions outside a block"
  | Some _, _ -> fail line "block without terminator"

let finish_block st term =
  match st.cur_label with
  | None -> invalid_arg "finish_block"
  | Some label ->
    st.cur_blocks <-
      { label; instrs = List.rev st.cur_instrs; term } :: st.cur_blocks;
    st.cur_label <- None;
    st.cur_instrs <- []

let close_func st line =
  close_block st line;
  match st.cur_func with
  | None -> fail line "} without open function"
  | Some (name, params) ->
    st.funcs <-
      { fname = name; fparams = params; blocks = List.rev st.cur_blocks }
      :: st.funcs;
    st.cur_func <- None;
    st.cur_blocks <- []

(* The "; program <name> (entry @<f>)" header comment. *)
let try_parse_header st line =
  match String.index_opt line ';' with
  | Some _ ->
    let words =
      String.split_on_char ' ' line
      |> List.filter (fun w -> w <> "" && w <> ";")
    in
    (match words with
    | "program" :: name :: rest ->
      st.pname <- name;
      List.iter
        (fun w ->
          if String.length w > 1 && w.[0] = '@' then begin
            let e = String.sub w 1 (String.length w - 1) in
            let e =
              if String.length e > 0 && e.[String.length e - 1] = ')' then
                String.sub e 0 (String.length e - 1)
              else e
            in
            st.entry <- e
          end)
        rest
    | _ -> ())
  | None -> ()

let parse ?(name = "program") text =
  let st =
    {
      cur_func = None;
      cur_blocks = [];
      cur_label = None;
      cur_instrs = [];
      funcs = [];
      pname = name;
      entry = "main";
    }
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun ix raw ->
      let lineno = ix + 1 in
      let trimmed = String.trim raw in
      if trimmed = "" then ()
      else if trimmed.[0] = ';' then try_parse_header st trimmed
      else
        match tokenize lineno trimmed with
        | [] -> ()
        | Ident "func" :: Global fname :: rest ->
          close_block st lineno;
          if st.cur_func <> None then fail lineno "nested func";
          let params =
            match rest with
            | Punct '(' :: inner ->
              let rec go acc = function
                | Punct ')' :: _ -> List.rev acc
                | (Ident p | Register p) :: _ when List.mem p acc ->
                  fail lineno "duplicate parameter %s of @%s" p fname
                | Ident p :: rest | Register p :: rest -> (
                  match rest with
                  | Punct ',' :: rest -> go (p :: acc) rest
                  | rest -> go (p :: acc) rest)
                | Punct ',' :: rest -> go acc rest
                | _ -> fail lineno "malformed parameter list"
              in
              go [] inner
            | _ -> fail lineno "expected ( after func name"
          in
          st.cur_func <- Some (fname, params)
        | [ Punct '}' ] -> close_func st lineno
        | Ident label :: Punct ':' :: [] ->
          if st.cur_func = None then fail lineno "label outside function";
          if st.cur_label <> None then fail lineno "block %s not terminated" label;
          st.cur_label <- Some label
        | Register dst :: Punct '=' :: rest ->
          if st.cur_label = None then fail lineno "instruction outside block";
          st.cur_instrs <- parse_assigned_instr lineno dst rest :: st.cur_instrs
        | (Ident ("jump" | "br" | "ret") :: _) as toks ->
          if st.cur_label = None then fail lineno "terminator outside block";
          finish_block st (parse_terminator lineno toks)
        | toks ->
          if st.cur_label = None then fail lineno "instruction outside block";
          st.cur_instrs <- parse_simple_instr lineno toks :: st.cur_instrs)
    lines;
  if st.cur_func <> None then
    fail (List.length lines) "unterminated function at end of input";
  { pname = st.pname; funcs = List.rev st.funcs; entry = st.entry }

(** Parse and validate, raising [Ir_error] on malformed programs. *)
let parse_exn ?name text =
  let p = parse ?name text in
  Validate.check_exn p;
  p

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse ~name:(Filename.remove_extension (Filename.basename path)) text
