type mode = { index : int; delta : float; emax : float; t1 : float; t2 : float }
type t = { n : int; gap : float; modes : mode array }

let reduce ?nk ?(n_modes = 2) n =
  let bands = Bands.of_index ?nk n in
  let subbands = Bands.conduction_subbands bands n_modes in
  let modes =
    Array.mapi
      (fun index (delta, emax) ->
        { index; delta; emax; t1 = (emax +. delta) /. 2.; t2 = (emax -. delta) /. 2. })
      subbands
  in
  { n; gap = Bands.band_gap bands; modes }

let site_spacing = Lattice.period /. 2.

let sites_for_length length =
  if length <= 0. then invalid_arg "Modespace.sites_for_length: non-positive length";
  let cells = max 2 (int_of_float (Float.round (length /. Lattice.period))) in
  2 * cells
