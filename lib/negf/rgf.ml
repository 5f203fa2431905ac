type chain = {
  onsite : float array;
  hopping : float array;
  sigma_l : Complex.t;
  sigma_r : Complex.t;
}

type spectra = { t_coh : float; a1 : float array; a2 : float array }

let gamma_of_sigma s = -2. *. s.Complex.im

let check chain =
  let n = Array.length chain.onsite in
  if n < 2 then invalid_arg "Rgf: chain needs at least two sites";
  if Array.length chain.hopping <> n - 1 then
    invalid_arg "Rgf: hopping length must be n-1";
  n

(* All complex arithmetic below is hand-rolled on float pairs: this is the
   innermost loop of every device simulation. *)

(* 1/(zr + i zi) *)
let inv_re zr zi = let d = (zr *. zr) +. (zi *. zi) in zr /. d

let inv_im zr zi = let d = (zr *. zr) +. (zi *. zi) in -.zi /. d

(* Preallocated per-worker scratch for the multi-mode spectra kernel:
   the charge integration calls it thousands of times per evaluation, and
   allocating its sweeps per energy would dominate the allocation rate of
   an SCF sweep.  Every array is mode-major (mode [m], site [i] at
   [m * n + i]) and grown geometrically on demand, so it may be longer
   than [modes * n]; the kernel indexes strictly through [0, modes * n).

   The workspace also caches the last mode array vetted by
   [check_modes] (physical equality): per-energy calls on the same array
   — the common case, an SCF iteration walks a whole energy grid with one
   set of mode chains — skip the re-validation while malformed chains
   still fail with the same [Invalid_argument] on first contact. *)
type workspace = {
  mutable glr : float array;
  mutable gli : float array;
  mutable grr : float array;
  mutable gri : float array;
  mutable wa1 : float array;
  mutable wa2 : float array;
  mutable validated : chain array option;
}

let workspace ?(hint = 0) () =
  let mk () = Array.make (max hint 0) 0. in
  {
    glr = mk ();
    gli = mk ();
    grr = mk ();
    gri = mk ();
    wa1 = mk ();
    wa2 = mk ();
    validated = None;
  }

let a1 ws = ws.wa1

let a2 ws = ws.wa2

let ensure_capacity ws len =
  if Array.length ws.glr < len then begin
    let cap = max len (2 * Array.length ws.glr) in
    ws.glr <- Array.make cap 0.;
    ws.gli <- Array.make cap 0.;
    ws.grr <- Array.make cap 0.;
    ws.gri <- Array.make cap 0.;
    ws.wa1 <- Array.make cap 0.;
    ws.wa2 <- Array.make cap 0.
  end

let check_modes chains =
  let nm = Array.length chains in
  if nm = 0 then invalid_arg "Rgf: no mode chains";
  let n = check chains.(0) in
  Array.iter
    (fun c ->
      if check c <> n then invalid_arg "Rgf: mode chains differ in length")
    chains;
  n

let check_cached ws chains =
  match ws.validated with
  | Some c when c == chains -> Array.length chains.(0).onsite
  | Some _ | None ->
    let n = check_modes chains in
    ensure_capacity ws (Array.length chains * n);
    ws.validated <- Some chains;
    n

(* The multi-mode spectra kernel.  The scalar recursion is bound by the
   latency of its two divisions per site, not by their throughput.  The
   left and right sweeps of a chain are independent of each other, and
   so are the chains of different modes, so the kernel walks two modes
   at once: each step of the site loop advances the left sweep at site
   [s] and the right sweep at site [n-1-s] of both modes, four
   independent division chains written out in straight-line code for
   the CPU to overlap.  The first- and last-column propagations are
   paired the same way.  An odd last mode is paired with itself (its two
   halves compute and store the same values).  Per element the
   arithmetic is exactly that of the one-chain recursion in [spectra],
   so every value is bit-identical to it. *)

(* Left-connected gL (arrays [glr]/[gli]) and right-connected gR
   ([grr]/[gri]) of chains [c] and [c'] stored at offsets [b] and [b'];
   the far contact joins each sweep at its last site.  The previous
   step's values ride in local refs (unboxed registers), so the
   dependency chains never wait on a store-to-load round trip. *)
let sweeps2 ~eta ~n ~glr ~gli ~grr ~gri c b c' b' e =
  let u = c.onsite and h = c.hopping in
  let u' = c'.onsite and h' = c'.hopping in
  (* Sweep ends: gL_0 and gR_{n-1} carry their own contact. *)
  let zr = e -. u.(0) -. c.sigma_l.Complex.re and zi = eta -. c.sigma_l.Complex.im in
  let wr = e -. u.(n - 1) -. c.sigma_r.Complex.re and wi = eta -. c.sigma_r.Complex.im in
  let zr' = e -. u'.(0) -. c'.sigma_l.Complex.re and zi' = eta -. c'.sigma_l.Complex.im in
  let wr' = e -. u'.(n - 1) -. c'.sigma_r.Complex.re
  and wi' = eta -. c'.sigma_r.Complex.im in
  let dl = (zr *. zr) +. (zi *. zi) and dr = (wr *. wr) +. (wi *. wi) in
  let dl' = (zr' *. zr') +. (zi' *. zi') and dr' = (wr' *. wr') +. (wi' *. wi') in
  let lr = ref (zr /. dl) and li = ref (-.zi /. dl) in
  let rr = ref (wr /. dr) and ri = ref (-.wi /. dr) in
  let lr' = ref (zr' /. dl') and li' = ref (-.zi' /. dl') in
  let rr' = ref (wr' /. dr') and ri' = ref (-.wi' /. dr') in
  glr.(b) <- !lr;
  gli.(b) <- !li;
  grr.(b + n - 1) <- !rr;
  gri.(b + n - 1) <- !ri;
  glr.(b') <- !lr';
  gli.(b') <- !li';
  grr.(b' + n - 1) <- !rr';
  gri.(b' + n - 1) <- !ri';
  for s = 1 to n - 1 do
    let i = s and j = n - 1 - s in
    let tl = h.(i - 1) *. h.(i - 1) and tl' = h'.(i - 1) *. h'.(i - 1) in
    let tr = h.(j) *. h.(j) and tr' = h'.(j) *. h'.(j) in
    let zr = e -. u.(i) -. (tl *. !lr) and zi = eta -. (tl *. !li) in
    let wr = e -. u.(j) -. (tr *. !rr) and wi = eta -. (tr *. !ri) in
    let zr' = e -. u'.(i) -. (tl' *. !lr') and zi' = eta -. (tl' *. !li') in
    let wr' = e -. u'.(j) -. (tr' *. !rr') and wi' = eta -. (tr' *. !ri') in
    let zr = if i = n - 1 then zr -. c.sigma_r.Complex.re else zr in
    let zi = if i = n - 1 then zi -. c.sigma_r.Complex.im else zi in
    let zr' = if i = n - 1 then zr' -. c'.sigma_r.Complex.re else zr' in
    let zi' = if i = n - 1 then zi' -. c'.sigma_r.Complex.im else zi' in
    let wr = if j = 0 then wr -. c.sigma_l.Complex.re else wr in
    let wi = if j = 0 then wi -. c.sigma_l.Complex.im else wi in
    let wr' = if j = 0 then wr' -. c'.sigma_l.Complex.re else wr' in
    let wi' = if j = 0 then wi' -. c'.sigma_l.Complex.im else wi' in
    let dl = (zr *. zr) +. (zi *. zi) and dr = (wr *. wr) +. (wi *. wi) in
    let dl' = (zr' *. zr') +. (zi' *. zi') and dr' = (wr' *. wr') +. (wi' *. wi') in
    lr := zr /. dl;
    li := -.zi /. dl;
    rr := wr /. dr;
    ri := -.wi /. dr;
    lr' := zr' /. dl';
    li' := -.zi' /. dl';
    rr' := wr' /. dr';
    ri' := -.wi' /. dr';
    glr.(b + i) <- !lr;
    gli.(b + i) <- !li;
    grr.(b + j) <- !rr;
    gri.(b + j) <- !ri;
    glr.(b' + i) <- !lr';
    gli.(b' + i) <- !li';
    grr.(b' + j) <- !rr';
    gri.(b' + j) <- !ri'
  done

(* First column G_{i,0} = gR_i h_{i-1} G_{i-1,0} from the fully connected
   G_{0,0} = gR_0, and last column G_{j,n-1} = gL_j h_j G_{j+1,n-1} from
   G_{n-1,n-1} = gL_{n-1}; their squared moduli weighted by the contact
   broadenings are the spectral diagonals [a1] and [a2].  The running
   column elements live in local refs only. *)
let columns2 ~n ~glr ~gli ~grr ~gri ~a1 ~a2 c b c' b' =
  let h = c.hopping and h' = c'.hopping in
  let gl = gamma_of_sigma c.sigma_l and gr = gamma_of_sigma c.sigma_r in
  let gl' = gamma_of_sigma c'.sigma_l and gr' = gamma_of_sigma c'.sigma_r in
  let l = b + n - 1 and l' = b' + n - 1 in
  let xr = ref grr.(b) and xi = ref gri.(b) and yr = ref glr.(l) and yi = ref gli.(l) in
  let xr' = ref grr.(b') and xi' = ref gri.(b') in
  let yr' = ref glr.(l') and yi' = ref gli.(l') in
  a1.(b) <- gl *. ((!xr *. !xr) +. (!xi *. !xi));
  a2.(l) <- gr *. ((!yr *. !yr) +. (!yi *. !yi));
  a1.(b') <- gl' *. ((!xr' *. !xr') +. (!xi' *. !xi'));
  a2.(l') <- gr' *. ((!yr' *. !yr') +. (!yi' *. !yi'));
  for s = 1 to n - 1 do
    let i = s and j = n - 1 - s in
    let ar = grr.(b + i) *. h.(i - 1) and ai = gri.(b + i) *. h.(i - 1) in
    let br = glr.(b + j) *. h.(j) and bi = gli.(b + j) *. h.(j) in
    let ar' = grr.(b' + i) *. h'.(i - 1) and ai' = gri.(b' + i) *. h'.(i - 1) in
    let br' = glr.(b' + j) *. h'.(j) and bi' = gli.(b' + j) *. h'.(j) in
    let pr = !xr and pi = !xi and qr = !yr and qi = !yi in
    let pr' = !xr' and pi' = !xi' and qr' = !yr' and qi' = !yi' in
    xr := (ar *. pr) -. (ai *. pi);
    xi := (ar *. pi) +. (ai *. pr);
    yr := (br *. qr) -. (bi *. qi);
    yi := (br *. qi) +. (bi *. qr);
    xr' := (ar' *. pr') -. (ai' *. pi');
    xi' := (ar' *. pi') +. (ai' *. pr');
    yr' := (br' *. qr') -. (bi' *. qi');
    yi' := (br' *. qi') +. (bi' *. qr');
    a1.(b + i) <- gl *. ((!xr *. !xr) +. (!xi *. !xi));
    a2.(b + j) <- gr *. ((!yr *. !yr) +. (!yi *. !yi));
    a1.(b' + i) <- gl' *. ((!xr' *. !xr') +. (!xi' *. !xi'));
    a2.(b' + j) <- gr' *. ((!yr' *. !yr') +. (!yi' *. !yi'))
  done

let spectra_into ?(eta = 1e-6) ws chains e =
  let n = check_cached ws chains in
  let nm = Array.length chains in
  let { glr; gli; grr; gri; wa1 = a1; wa2 = a2; _ } = ws in
  let m = ref 0 in
  while !m < nm do
    let m' = if !m + 1 < nm then !m + 1 else !m in
    let c = chains.(!m) and b = !m * n and c' = chains.(m') and b' = m' * n in
    sweeps2 ~eta ~n ~glr ~gli ~grr ~gri c b c' b' e;
    columns2 ~n ~glr ~gli ~grr ~gri ~a1 ~a2 c b c' b';
    m := !m + 2
  done

(* The allocating one-chain reference kernel: the plain sequential
   recursion, kept as the oracle the fused kernel is tested against. *)
let spectra ?(eta = 1e-6) chain e =
  let n = check chain in
  let u = chain.onsite and h = chain.hopping in
  let slr = chain.sigma_l.Complex.re and sli = chain.sigma_l.Complex.im in
  let srr = chain.sigma_r.Complex.re and sri = chain.sigma_r.Complex.im in
  let glr = Array.make n 0. and gli = Array.make n 0. in
  let grr = Array.make n 0. and gri = Array.make n 0. in
  let c0r = Array.make n 0. and c0i = Array.make n 0. in
  let cnr = Array.make n 0. and cni = Array.make n 0. in
  (* Left-connected Green's functions gL_i. *)
  let zr0 = e -. u.(0) -. slr and zi0 = eta -. sli in
  glr.(0) <- inv_re zr0 zi0;
  gli.(0) <- inv_im zr0 zi0;
  for i = 1 to n - 1 do
    let t2 = h.(i - 1) *. h.(i - 1) in
    let zr = e -. u.(i) -. (t2 *. glr.(i - 1)) in
    let zi = eta -. (t2 *. gli.(i - 1)) in
    let zr = if i = n - 1 then zr -. srr else zr in
    let zi = if i = n - 1 then zi -. sri else zi in
    glr.(i) <- inv_re zr zi;
    gli.(i) <- inv_im zr zi
  done;
  (* Right-connected Green's functions gR_i. *)
  let zrn = e -. u.(n - 1) -. srr and zin = eta -. sri in
  grr.(n - 1) <- inv_re zrn zin;
  gri.(n - 1) <- inv_im zrn zin;
  for i = n - 2 downto 0 do
    let t2 = h.(i) *. h.(i) in
    let zr = e -. u.(i) -. (t2 *. grr.(i + 1)) in
    let zi = eta -. (t2 *. gri.(i + 1)) in
    let zr = if i = 0 then zr -. slr else zr in
    let zi = if i = 0 then zi -. sli else zi in
    grr.(i) <- inv_re zr zi;
    gri.(i) <- inv_im zr zi
  done;
  (* First column of the full G: G_{i,0} = gR_i * h_{i-1} * G_{i-1,0},
     G_{0,0} fully-connected (gR_0 already includes sigma_l). *)
  c0r.(0) <- grr.(0);
  c0i.(0) <- gri.(0);
  for i = 1 to n - 1 do
    let ar = grr.(i) *. h.(i - 1) and ai = gri.(i) *. h.(i - 1) in
    c0r.(i) <- (ar *. c0r.(i - 1)) -. (ai *. c0i.(i - 1));
    c0i.(i) <- (ar *. c0i.(i - 1)) +. (ai *. c0r.(i - 1))
  done;
  (* Last column: G_{i,n-1} = gL_i * h_i * G_{i+1,n-1}, with the fully
     connected G_{n-1,n-1} = gL_{n-1} (left sweep already has sigma_r). *)
  cnr.(n - 1) <- glr.(n - 1);
  cni.(n - 1) <- gli.(n - 1);
  for i = n - 2 downto 0 do
    let ar = glr.(i) *. h.(i) and ai = gli.(i) *. h.(i) in
    cnr.(i) <- (ar *. cnr.(i + 1)) -. (ai *. cni.(i + 1));
    cni.(i) <- (ar *. cni.(i + 1)) +. (ai *. cnr.(i + 1))
  done;
  let gamma_l = gamma_of_sigma chain.sigma_l in
  let gamma_r = gamma_of_sigma chain.sigma_r in
  let a1 =
    Array.init n (fun i -> gamma_l *. ((c0r.(i) *. c0r.(i)) +. (c0i.(i) *. c0i.(i))))
  in
  let a2 =
    Array.init n (fun i -> gamma_r *. ((cnr.(i) *. cnr.(i)) +. (cni.(i) *. cni.(i))))
  in
  let g0n2 = (cnr.(0) *. cnr.(0)) +. (cni.(0) *. cni.(0)) in
  { t_coh = gamma_l *. gamma_r *. g0n2; a1; a2 }

(* Single left sweep, propagating the (0, i) matrix element product;
   allocation-free. *)
let transmission ?(eta = 1e-6) chain e =
  let n = check chain in
  let u = chain.onsite and h = chain.hopping in
  let slr = chain.sigma_l.Complex.re and sli = chain.sigma_l.Complex.im in
  let srr = chain.sigma_r.Complex.re and sri = chain.sigma_r.Complex.im in
  let zr0 = e -. u.(0) -. slr and zi0 = eta -. sli in
  let glr = ref (inv_re zr0 zi0) and gli = ref (inv_im zr0 zi0) in
  (* pr + i pi accumulates prod_{j<i} (gL_j h_j). *)
  let pr = ref !glr and pi = ref !gli in
  for i = 1 to n - 1 do
    let t2 = h.(i - 1) *. h.(i - 1) in
    let zr = e -. u.(i) -. (t2 *. !glr) in
    let zi = eta -. (t2 *. !gli) in
    let zr = if i = n - 1 then zr -. srr else zr in
    let zi = if i = n - 1 then zi -. sri else zi in
    glr := inv_re zr zi;
    gli := inv_im zr zi;
    (* Multiply the running product by h_{i-1}, then (at the end) by the
       fully-connected G_nn; mid-chain we fold in gL_i progressively:
       G_{0,n-1} = (prod_{i<n-1} gL_i h_i) * G_{n-1,n-1}; our loop keeps
       prod gL h gL h ... by multiplying h then gL each step. *)
    let qr = !pr *. h.(i - 1) in
    let qi = !pi *. h.(i - 1) in
    pr := (qr *. !glr) -. (qi *. !gli);
    pi := (qr *. !gli) +. (qi *. !glr)
  done;
  let gamma_l = gamma_of_sigma chain.sigma_l in
  let gamma_r = gamma_of_sigma chain.sigma_r in
  gamma_l *. gamma_r *. ((!pr *. !pr) +. (!pi *. !pi))
