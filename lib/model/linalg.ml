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
