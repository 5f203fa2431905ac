type t = { n : int; ka : float array; energies : float array array }

let compute ?(nk = 33) tb =
  if nk < 2 then invalid_arg "Bands.compute: nk must be >= 2";
  let ka = Vec.linspace 0. Float.pi nk in
  let energies =
    Array.map (fun k -> Eigen.hermitian_values (Tight_binding.bloch tb k)) ka
  in
  { n = tb.Tight_binding.n; ka; energies }

let band_gap b =
  let m = ref infinity in
  Array.iter
    (fun es -> Array.iter (fun e -> m := Float.min !m (Float.abs e)) es)
    b.energies;
  2. *. !m

let conduction_subbands b m =
  if m < 1 then invalid_arg "Bands.conduction_subbands: m must be positive";
  (* Energies are ascending at every k, so the positive ones are a
     suffix starting at the first e > 0. *)
  let first_positive es =
    let rec go i = if i < Array.length es && not (es.(i) > 0.) then go (i + 1) else i in
    go 0
  in
  let starts = Array.map first_positive b.energies in
  let available =
    Array.fold_left min max_int
      (Array.mapi (fun k es -> Array.length es - starts.(k)) b.energies)
  in
  let m = min m available in
  Array.init m (fun p ->
      let lo = ref infinity and hi = ref neg_infinity in
      Array.iteri
        (fun k es ->
          lo := Float.min !lo es.(starts.(k) + p);
          hi := Float.max !hi es.(starts.(k) + p))
        b.energies;
      (!lo, !hi))

(* One band structure per (GNR index, nk) for the life of the process,
   shared by the gap lookup and the mode-space reduction. *)
let cache : (int * int, t) Hashtbl.t = Hashtbl.create 8

let cache_mutex = Mutex.create ()

let of_index ?(nk = 65) n =
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache (n, nk)) with
  | Some b -> b
  | None ->
    let b = compute ~nk (Tight_binding.make n) in
    Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache (n, nk) b);
    b

let gap_of_index ?nk n = band_gap (of_index ?nk n)
