(* Eigenvalues of a Hermitian matrix held as split real/imaginary planes
   ([ar], [ai], row-major n x n, overwritten): Householder reduction to a
   real symmetric tridiagonal matrix, then the implicit QL iteration on
   that.  Values only, O(n³) with a small constant — the <=72x72 Bloch
   Hamiltonians of the band-structure sweeps take microseconds. *)

(* Reduce to tridiagonal form.  Step [k] reflects the column below the
   diagonal, x = A[k+1.., k], onto alpha e_1 with H = I - tau v v^H,
   v = x - alpha e_1 and alpha = -(x_0 / |x_0|) |x| (no cancellation in
   v_0), then updates the trailing block as A - v w^H - w v^H with
   p = tau A v and w = p - (tau/2)(v^H p) v.  The off-diagonal alpha is
   complex, but a diagonal unitary similarity makes it real without
   changing the spectrum, so only |alpha| = |x| is kept.  Returns the
   diagonal [d] and the couplings [e] (e.(i) joins rows i and i+1;
   e.(n-1) = 0). *)
let tridiagonalize n ar ai =
  let d = Array.make n 0. and e = Array.make n 0. in
  let vr = Array.make n 0. and vi = Array.make n 0. in
  let wr = Array.make n 0. and wi = Array.make n 0. in
  for k = 0 to n - 3 do
    let lo = k + 1 in
    let tail = ref 0. in
    for i = lo + 1 to n - 1 do
      let xr = ar.((i * n) + k) and xi = ai.((i * n) + k) in
      tail := !tail +. (xr *. xr) +. (xi *. xi)
    done;
    let x0r = ar.((lo * n) + k) and x0i = ai.((lo * n) + k) in
    let x0 = Float.hypot x0r x0i in
    let norm = sqrt ((x0 *. x0) +. !tail) in
    e.(k) <- norm;
    if !tail > 0. then begin
      (* phase = x_0 / |x_0| (1 for x_0 = 0); v_0 = phase (|x_0| + |x|). *)
      let pr, pi = if x0 > 0. then (x0r /. x0, x0i /. x0) else (1., 0.) in
      vr.(lo) <- pr *. (x0 +. norm);
      vi.(lo) <- pi *. (x0 +. norm);
      for i = lo + 1 to n - 1 do
        vr.(i) <- ar.((i * n) + k);
        vi.(i) <- ai.((i * n) + k)
      done;
      let vv = (vr.(lo) *. vr.(lo)) +. (vi.(lo) *. vi.(lo)) +. !tail in
      let tau = 2. /. vv in
      (* p = tau A v over the trailing block, and v^H p (real). *)
      let vhp = ref 0. in
      for i = lo to n - 1 do
        let sr = ref 0. and si = ref 0. in
        for j = lo to n - 1 do
          let a_r = ar.((i * n) + j) and a_i = ai.((i * n) + j) in
          sr := !sr +. (a_r *. vr.(j)) -. (a_i *. vi.(j));
          si := !si +. (a_r *. vi.(j)) +. (a_i *. vr.(j))
        done;
        wr.(i) <- tau *. !sr;
        wi.(i) <- tau *. !si;
        vhp := !vhp +. (vr.(i) *. wr.(i)) +. (vi.(i) *. wi.(i))
      done;
      let half = 0.5 *. tau *. !vhp in
      for i = lo to n - 1 do
        wr.(i) <- wr.(i) -. (half *. vr.(i));
        wi.(i) <- wi.(i) -. (half *. vi.(i))
      done;
      (* A_ij -= v_i conj(w_j) + w_i conj(v_j). *)
      for i = lo to n - 1 do
        for j = lo to n - 1 do
          let ij = (i * n) + j in
          ar.(ij) <-
            ar.(ij)
            -. ((vr.(i) *. wr.(j)) +. (vi.(i) *. wi.(j)))
            -. ((wr.(i) *. vr.(j)) +. (wi.(i) *. vi.(j)));
          ai.(ij) <-
            ai.(ij)
            -. ((vi.(i) *. wr.(j)) -. (vr.(i) *. wi.(j)))
            -. ((wi.(i) *. vr.(j)) -. (wr.(i) *. vi.(j)))
        done
      done
    end;
    d.(k) <- ar.((k * n) + k)
  done;
  if n >= 2 then
    e.(n - 2) <- Float.hypot ar.(((n - 1) * n) + n - 2) ai.(((n - 1) * n) + n - 2);
  for k = max 0 (n - 2) to n - 1 do
    d.(k) <- ar.((k * n) + k)
  done;
  (d, e)

(* Implicit QL with Wilkinson-style shifts on the symmetric tridiagonal
   (d, e), eigenvalues left in [d] (unordered). *)
let tridiagonal_ql d e =
  let n = Array.length d in
  let max_iter = 60 in
  for l = 0 to n - 1 do
    let iter = ref 0 and split = ref false in
    while not !split do
      (* Smallest m >= l whose coupling e.(m) is negligible. *)
      let m = ref l in
      while
        !m < n - 1
        && Float.abs e.(!m) > epsilon_float *. (Float.abs d.(!m) +. Float.abs d.(!m + 1))
      do
        incr m
      done;
      let m = !m in
      if m = l then split := true
      else begin
        if !iter >= max_iter then
          raise
            (Numerics_error.Stalled
               { solver = "Eigen.tridiagonal_ql"; iterations = !iter;
                 residual = Float.abs e.(l) });
        incr iter;
        let g = (d.(l + 1) -. d.(l)) /. (2. *. e.(l)) in
        let r = Float.hypot g 1. in
        let g = ref (d.(m) -. d.(l) +. (e.(l) /. (g +. Float.copy_sign r g))) in
        let s = ref 1. and c = ref 1. and p = ref 0. in
        let i = ref (m - 1) and deflated = ref false in
        while !i >= l && not !deflated do
          let f = !s *. e.(!i) and b = !c *. e.(!i) in
          let r = Float.hypot f !g in
          e.(!i + 1) <- r;
          if r > 0. then begin
            s := f /. r;
            c := !g /. r;
            let g' = d.(!i + 1) -. !p in
            let r = ((d.(!i) -. g') *. !s) +. (2. *. !c *. b) in
            p := !s *. r;
            d.(!i + 1) <- g' +. !p;
            g := (!c *. r) -. b;
            decr i
          end
          else begin
            (* Underflow: the rotation split the matrix; restart. *)
            d.(!i + 1) <- d.(!i + 1) -. !p;
            e.(m) <- 0.;
            deflated := true
          end
        done;
        if not !deflated then begin
          d.(l) <- d.(l) -. !p;
          e.(l) <- !g;
          e.(m) <- 0.
        end
      end
    done
  done

let hermitian_planes n ar ai =
  let d, e = tridiagonalize n ar ai in
  tridiagonal_ql d e;
  Array.sort Float.compare d;
  d

let symmetric_values a =
  let n, m = Matrix.dims a in
  if n <> m then invalid_arg "Eigen.symmetric_values: non-square";
  let ar =
    Array.init (n * n) (fun k ->
        let i = k / n and j = k mod n in
        0.5 *. (Matrix.get a i j +. Matrix.get a j i))
  in
  hermitian_planes n ar (Array.make (n * n) 0.)

let hermitian_values h =
  let n, m = Cmatrix.dims h in
  if n <> m then invalid_arg "Eigen.hermitian_values: non-square";
  (* Hermitian part (h + h^H) / 2, split into planes. *)
  let ar = Array.make (n * n) 0. and ai = Array.make (n * n) 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let z = Cmatrix.get h i j and zt = Cmatrix.get h j i in
      ar.((i * n) + j) <- 0.5 *. (z.Complex.re +. zt.Complex.re);
      ai.((i * n) + j) <- 0.5 *. (z.Complex.im -. zt.Complex.im)
    done
  done;
  hermitian_planes n ar ai
