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

(* Entry [k] of a system gathered by {!solve3}; small and closed, so it
   inlines and its float stays unboxed. *)
let[@inline] entry (src : float array) (offs : int array) at k =
  src.(offs.(k) + at)

(** {!solve_in_place} at size 3 with the system in local floats: the same
    pivots, singular tests, elimination and back substitution, operation
    for operation, so the verdict and every bit of x agree.  a_ij is
    [src.(offs.(3i + j) + at)] and b_i is [src.(offs.(9 + i) + at)]; x
    goes to [x.(0..2)], which is left untouched when a pivot is
    singular. *)
let solve3 (src : float array) (offs : int array) at (x : float array) =
  (* Column 0: a later row replaces the pivot only on a strictly larger
     magnitude, so the first maximum wins; swapping row [p] into row 0
     leaves the third row where it was. *)
  let p =
    if Float.abs (entry src offs at 3) > Float.abs (entry src offs at 0)
    then 1 else 0
  in
  let p =
    if Float.abs (entry src offs at 6) > Float.abs (entry src offs at (3 * p))
    then 2 else p
  in
  let r1 = if p = 1 then 0 else 1 and r2 = if p = 2 then 0 else 2 in
  let a00 = entry src offs at (3 * p) in
  if Float.abs a00 < 1e-12 then false
  else begin
    let a01 = entry src offs at ((3 * p) + 1)
    and a02 = entry src offs at ((3 * p) + 2)
    and b0 = entry src offs at (9 + p) in
    (* Eliminate column 0; the eliminated entries are never read again. *)
    let f = entry src offs at (3 * r1) /. a00 in
    let a11 = ref (entry src offs at ((3 * r1) + 1) -. (f *. a01))
    and a12 = ref (entry src offs at ((3 * r1) + 2) -. (f *. a02))
    and b1 = ref (entry src offs at (9 + r1) -. (f *. b0)) in
    let f = entry src offs at (3 * r2) /. a00 in
    let a21 = ref (entry src offs at ((3 * r2) + 1) -. (f *. a01))
    and a22 = ref (entry src offs at ((3 * r2) + 2) -. (f *. a02))
    and b2 = ref (entry src offs at (9 + r2) -. (f *. b0)) in
    (* Column 1: the same strict pivot test, swapping whole rows. *)
    if Float.abs !a21 > Float.abs !a11 then begin
      let t = !a11 in a11 := !a21; a21 := t;
      let t = !a12 in a12 := !a22; a22 := t;
      let t = !b1 in b1 := !b2; b2 := t
    end;
    if Float.abs !a11 < 1e-12 then false
    else begin
      let f = !a21 /. !a11 in
      let a22 = !a22 -. (f *. !a12) and b2 = !b2 -. (f *. !b1) in
      if Float.abs a22 < 1e-12 then false
      else begin
        let x2 = b2 /. a22 in
        let x1 = (!b1 -. (!a12 *. x2)) /. !a11 in
        let x0 = ((b0 -. (a01 *. x1)) -. (a02 *. x2)) /. a00 in
        x.(0) <- x0;
        x.(1) <- x1;
        x.(2) <- x2;
        not
          (Float.is_nan x0 || Float.abs x0 = Float.infinity
         || Float.is_nan x1 || Float.abs x1 = Float.infinity
         || Float.is_nan x2 || Float.abs x2 = Float.infinity)
      end
    end
  end

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
