(** Small dense linear algebra: ordinary least squares via normal
    equations with Gaussian elimination and partial pivoting.  The PMNF
    hypothesis spaces are tiny (at most ~5 columns), so numerical
    sophistication beyond pivoting is unnecessary. *)

(** Solve [a] x = [b] for a square system, overwriting both: rows of [a]
    are swapped and eliminated, and [b] receives the solution.  Returns
    [false] when the matrix is (numerically) singular or the solution is
    not finite. *)
let solve_in_place a b =
  let n = Array.length b in
  let ok = ref true in
  for col = 0 to n - 1 do
    (* partial pivot *)
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!piv).(col) then piv := r
    done;
    if !piv <> col then begin
      let tmp = a.(col) in a.(col) <- a.(!piv); a.(!piv) <- tmp;
      let tb = b.(col) in b.(col) <- b.(!piv); b.(!piv) <- tb
    end;
    if Float.abs a.(col).(col) < 1e-12 then ok := false
    else
      for r = col + 1 to n - 1 do
        let f = a.(r).(col) /. a.(col).(col) in
        for c = col to n - 1 do
          a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
        done;
        b.(r) <- b.(r) -. (f *. b.(col))
      done
  done;
  !ok
  && begin
    (* Back substitution: b.(c) already holds x_c for every c > r. *)
    for r = n - 1 downto 0 do
      let s = ref b.(r) in
      for c = r + 1 to n - 1 do
        s := !s -. (a.(r).(c) *. b.(c))
      done;
      b.(r) <- !s /. a.(r).(r)
    done;
    (* A loop, not Array.exists, which would box every float. *)
    let finite = ref true in
    for r = 0 to n - 1 do
      if Float.is_nan b.(r) || Float.abs b.(r) = Float.infinity then
        finite := false
    done;
    !finite
  end

(* An offset [o] whose block [o .. o + count - 1] leaves the source,
   [last] being its length minus [count]; top level, so that no closure
   is allocated per call. *)
let outside last o = o < 0 || o > last

(** [count] symmetric 3×3 systems, each solved as {!solve_in_place} solves
    it: the same strict pivot tests (the first maximum wins, whole rows
    swap), the same singular test per column, the same elimination, back
    substitution and finiteness test, operation for operation.  System k
    reads a00, a01, a02, a11, a12, a22, b0, b1 and b2 at
    [src.(offs.(j) + k)], j = 0..8, and a10, a20 and a21 are a01, a02 and
    a12.  Nothing exits early: a failed test only clears the verdict, so
    the systems run one after the other in one loop with no dependence
    between them, and the CPU overlaps their division chains. *)
let solve_sym3 (src : float array) (offs : int array) count (x : float array)
    =
  if count < 0 || Array.length offs < 9 || Array.length x < 3 * count then
    invalid_arg "Linalg.solve_sym3";
  let o00 = offs.(0) and o01 = offs.(1) and o02 = offs.(2)
  and o11 = offs.(3) and o12 = offs.(4) and o22 = offs.(5)
  and ob0 = offs.(6) and ob1 = offs.(7) and ob2 = offs.(8) in
  (* Every read below is at some offset plus k < count. *)
  let last = Array.length src - count in
  if
    count > 0
    && (outside last o00 || outside last o01 || outside last o02
       || outside last o11 || outside last o12 || outside last o22
       || outside last ob0 || outside last ob1 || outside last ob2)
  then invalid_arg "Linalg.solve_sym3";
  let ok = ref true in
  for k = 0 to count - 1 do
    let e00 = Array.unsafe_get src (o00 + k)
    and e01 = Array.unsafe_get src (o01 + k)
    and e02 = Array.unsafe_get src (o02 + k)
    and e11 = Array.unsafe_get src (o11 + k)
    and e12 = Array.unsafe_get src (o12 + k)
    and e22 = Array.unsafe_get src (o22 + k)
    and e0 = Array.unsafe_get src (ob0 + k)
    and e1 = Array.unsafe_get src (ob1 + k)
    and e2 = Array.unsafe_get src (ob2 + k) in
    (* Column 0: row 1 (a10 = a01) replaces row 0 only on a strictly
       larger magnitude, then row 2 (a20 = a02) replaces the winner.  The
       pivot row swaps with row 0; the third row stays where it was.  Rows
       1 and 2 start as they are and take row 0's entries when it moves
       there. *)
    let a00 = ref e00 and a01 = ref e01 and a02 = ref e02 and b0 = ref e0 in
    let a10 = ref e01 and a11 = ref e11 and a12 = ref e12 and b1 = ref e1 in
    let a20 = ref e02 and a21 = ref e12 and a22 = ref e22 and b2 = ref e2 in
    let p1 = Float.abs e01 > Float.abs e00 in
    if Float.abs e02 > Float.abs (if p1 then e01 else e00) then begin
      a00 := e02; a01 := e12; a02 := e22; b0 := e2;
      a20 := e00; a21 := e01; a22 := e02; b2 := e0
    end
    else if p1 then begin
      a00 := e01; a01 := e11; a02 := e12; b0 := e1;
      a10 := e00; a11 := e01; a12 := e02; b1 := e0
    end;
    let a00 = !a00 and a01 = !a01 and a02 = !a02 and b0 = !b0 in
    (* Eliminate column 0; the eliminated entries are never read again. *)
    let f = !a10 /. a00 in
    a11 := !a11 -. (f *. a01);
    a12 := !a12 -. (f *. a02);
    b1 := !b1 -. (f *. b0);
    let f = !a20 /. a00 in
    a21 := !a21 -. (f *. a01);
    a22 := !a22 -. (f *. a02);
    b2 := !b2 -. (f *. b0);
    (* Column 1: the same strict pivot test, swapping whole rows. *)
    if Float.abs !a21 > Float.abs !a11 then begin
      let t = !a11 in a11 := !a21; a21 := t;
      let t = !a12 in a12 := !a22; a22 := t;
      let t = !b1 in b1 := !b2; b2 := t
    end;
    let a11 = !a11 and a12 = !a12 and b1 = !b1 in
    let f = !a21 /. a11 in
    let a22 = !a22 -. (f *. a12) and b2 = !b2 -. (f *. b1) in
    let x2 = b2 /. a22 in
    let x1 = (b1 -. (a12 *. x2)) /. a11 in
    let x0 = ((b0 -. (a01 *. x1)) -. (a02 *. x2)) /. a00 in
    Array.unsafe_set x (3 * k) x0;
    Array.unsafe_set x ((3 * k) + 1) x1;
    Array.unsafe_set x ((3 * k) + 2) x2;
    if
      Float.abs a00 < 1e-12 || Float.abs a11 < 1e-12 || Float.abs a22 < 1e-12
      || Float.is_nan x0 || Float.abs x0 = Float.infinity
      || Float.is_nan x1 || Float.abs x1 = Float.infinity
      || Float.is_nan x2 || Float.abs x2 = Float.infinity
    then ok := false
  done;
  !ok

(** Solve [a] x = [b] on copies, leaving the arguments untouched; [None]
    when singular. *)
let solve a b =
  let b = Array.copy b in
  if solve_in_place (Array.map Array.copy a) b then Some b else None

(** Least squares fit: [design] is rows of basis-function values, [y] the
    observations; returns coefficients minimising ||design * c - y||^2. *)
let least_squares design y =
  let rows = Array.length design in
  if rows = 0 then None
  else
    let cols = Array.length design.(0) in
    if rows < cols then None
    else begin
      (* Normal equations: (X^T X) c = X^T y. *)
      let xtx = Array.make_matrix cols cols 0. in
      let xty = Array.make cols 0. in
      for r = 0 to rows - 1 do
        for i = 0 to cols - 1 do
          xty.(i) <- xty.(i) +. (design.(r).(i) *. y.(r));
          for j = 0 to cols - 1 do
            xtx.(i).(j) <- xtx.(i).(j) +. (design.(r).(i) *. design.(r).(j))
          done
        done
      done;
      if solve_in_place xtx xty then Some xty else None
    end
