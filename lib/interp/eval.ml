(** Evaluation of PIR scalar operations, with dynamic kind checking. *)

open Ir.Types

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let source_label labels name =
  try Taint.Label.base labels name
  with Taint.Label.Too_many_sources n ->
    error "taint source %s exceeds the limit of %d distinct sources" n
      Taint.Label.max_sources

let as_int = function
  | VInt i -> i
  | v -> error "expected int, got %s" (value_kind v)

let max_alloc_cells = 1 lsl 24

let alloc_size v =
  let n = as_int v in
  if n > max_alloc_cells then
    error "allocation of %d cells exceeds the limit of %d cells" n
      max_alloc_cells;
  n

let max_call_depth = 10_000

let call_depth_exceeded () =
  error "call depth exceeds the limit of %d frames" max_call_depth

let as_float = function
  | VFloat f -> f
  | v -> error "expected float, got %s" (value_kind v)

let as_bool = function
  | VBool b -> b
  | v -> error "expected bool, got %s" (value_kind v)

let as_arr = function
  | VArr h -> h
  | v -> error "expected array, got %s" (value_kind v)

(* Scalar results are produced at interpreter rates, so booleans and
   small ints are shared pre-boxed values rather than fresh allocations
   (values are immutable, so sharing is unobservable). *)
let vtrue = VBool true
let vfalse = VBool false
let vbool b = if b then vtrue else vfalse
let small_ints = Array.init 1024 (fun i -> VInt (i - 256))

let vint i =
  if i >= -256 && i < 768 then Array.unsafe_get small_ints (i + 256)
  else VInt i

(* Comparisons accept both int and float operands of matching kind. *)
let compare_values op a b =
  let c =
    match (a, b) with
    | VInt x, VInt y -> compare x y
    | VFloat x, VFloat y -> compare x y
    | VBool x, VBool y -> compare x y
    | _ -> error "comparison of %s and %s" (value_kind a) (value_kind b)
  in
  let r =
    match op with
    | Eq -> c = 0 | Ne -> c <> 0
    | Lt -> c < 0 | Le -> c <= 0
    | Gt -> c > 0 | Ge -> c >= 0
    | _ -> assert false
  in
  vbool r

let binop op a b =
  match op with
  | Add -> vint (as_int a + as_int b)
  | Sub -> vint (as_int a - as_int b)
  | Mul -> vint (as_int a * as_int b)
  | Div ->
    let d = as_int b in
    if d = 0 then error "integer division by zero" else vint (as_int a / d)
  | Rem ->
    let d = as_int b in
    if d = 0 then error "integer remainder by zero" else vint (as_int a mod d)
  | Min -> vint (min (as_int a) (as_int b))
  | Max -> vint (max (as_int a) (as_int b))
  | FAdd -> VFloat (as_float a +. as_float b)
  | FSub -> VFloat (as_float a -. as_float b)
  | FMul -> VFloat (as_float a *. as_float b)
  | FDiv -> VFloat (as_float a /. as_float b)
  | FMin -> VFloat (Float.min (as_float a) (as_float b))
  | FMax -> VFloat (Float.max (as_float a) (as_float b))
  | And -> vbool (as_bool a && as_bool b)
  | Or -> vbool (as_bool a || as_bool b)
  | (Eq | Ne | Lt | Le | Gt | Ge) as cmp -> compare_values cmp a b

let unop op a =
  match op with
  | Neg -> vint (-as_int a)
  | FNeg -> VFloat (-.as_float a)
  | Not -> vbool (not (as_bool a))
  | FloatOfInt -> VFloat (float_of_int (as_int a))
  | IntOfFloat -> vint (int_of_float (as_float a))
