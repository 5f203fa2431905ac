type contact_style = Plane | Point

type dirichlet = D_left | D_right | D_bottom | D_top

type t = {
  xs : float array;
  zs : float array;
  sheet_row : int;
  style : contact_style;
  unknown_of : int array array; (* node -> unknown index, or -1 *)
  dirichlet_of : dirichlet option array array;
  matrix : Banded.t; (* factorized *)
  cond_east : float array array; (* (nx-1) x nz *)
  cond_north : float array array; (* nx x (nz-1) *)
  n_unknowns : int;
  green : float array; (* (nx-2) x (nx-2) row-major: plane response to sheet charge *)
  bc_basis : float array array; (* left, right, bottom, top: plane response to a unit bc *)
}

type bc = { left : float; right : float; bottom : float; top : float }

let nx t = Array.length t.xs
let nz t = Array.length t.zs

let cell_size axis k =
  let n = Array.length axis in
  let lo = if k = 0 then axis.(0) else 0.5 *. (axis.(k - 1) +. axis.(k)) in
  let hi = if k = n - 1 then axis.(n - 1) else 0.5 *. (axis.(k) +. axis.(k + 1)) in
  hi -. lo

let dirichlet_value bc = function
  | D_left -> bc.left
  | D_right -> bc.right
  | D_bottom -> bc.bottom
  | D_top -> bc.top

(* The factorized banded solve for the interior unknowns. *)
let solve_unknowns t ~bc ~sheet_charge =
  let nx = nx t and nz = nz t in
  if Array.length sheet_charge <> nx - 2 then
    invalid_arg "Stack2d.solve: sheet_charge must have nx-2 entries";
  let rhs = Array.make t.n_unknowns 0. in
  (* Sheet charge: div(eps grad u) = rho discretizes to
     (sum c) u_c - sum c u_nb = -rho_cell. *)
  for i = 1 to nx - 2 do
    let k = t.unknown_of.(i).(t.sheet_row) in
    if k >= 0 then begin
      let dx = cell_size t.xs i in
      rhs.(k) <- rhs.(k) -. (sheet_charge.(i - 1) *. dx)
    end
  done;
  (* Dirichlet neighbour contributions. *)
  for i = 0 to nx - 1 do
    for j = 1 to nz - 2 do
      let k = t.unknown_of.(i).(j) in
      if k >= 0 then begin
        let bump neighbour cond =
          match neighbour with
          | None -> ()
          | Some (i', j') -> begin
            match t.dirichlet_of.(i').(j') with
            | Some d -> rhs.(k) <- rhs.(k) +. (cond *. dirichlet_value bc d)
            | None -> ()
          end
        in
        bump (if i > 0 then Some (i - 1, j) else None)
          (if i > 0 then t.cond_east.(i - 1).(j) else 0.);
        bump (if i < nx - 1 then Some (i + 1, j) else None)
          (if i < nx - 1 then t.cond_east.(i).(j) else 0.);
        bump (Some (i, j - 1)) t.cond_north.(i).(j - 1);
        bump (Some (i, j + 1)) t.cond_north.(i).(j)
      end
    done
  done;
  Banded.solve t.matrix rhs

(* Sheet-row interior nodes are always unknowns (the row is interior and
   the contacts sit at x-indices 0 and nx-1). *)
let plane_of_unknowns t x =
  Array.init (nx t - 2) (fun i -> x.(t.unknown_of.(i + 1).(t.sheet_row)))

let make ?(contact_style = Point) ~xs ~zs ~eps_r ~sheet_row () =
  let nx = Array.length xs and nz = Array.length zs in
  if nx < 3 || nz < 3 then invalid_arg "Stack2d.make: grid too small";
  if sheet_row <= 0 || sheet_row >= nz - 1 then
    invalid_arg "Stack2d.make: sheet_row must be interior";
  let eps x z = Const.eps0 *. eps_r x z in
  let cond_east =
    Array.init (nx - 1) (fun i ->
        Array.init nz (fun j ->
            let xm = 0.5 *. (xs.(i) +. xs.(i + 1)) in
            eps xm zs.(j) *. cell_size zs j /. (xs.(i + 1) -. xs.(i))))
  in
  let cond_north =
    Array.init nx (fun i ->
        Array.init (nz - 1) (fun j ->
            let zm = 0.5 *. (zs.(j) +. zs.(j + 1)) in
            eps xs.(i) zm *. cell_size xs i /. (zs.(j + 1) -. zs.(j))))
  in
  (* Classify nodes: gates always Dirichlet; contacts per style. *)
  let dirichlet_of =
    Array.init nx (fun i ->
        Array.init nz (fun j ->
            if j = 0 then Some D_bottom
            else if j = nz - 1 then Some D_top
            else begin
              match contact_style with
              | Plane ->
                if i = 0 then Some D_left
                else if i = nx - 1 then Some D_right
                else None
              | Point ->
                if i = 0 && j = sheet_row then Some D_left
                else if i = nx - 1 && j = sheet_row then Some D_right
                else None
            end))
  in
  let unknown_of = Array.make_matrix nx nz (-1) in
  let count = ref 0 in
  for i = 0 to nx - 1 do
    for j = 1 to nz - 2 do
      if dirichlet_of.(i).(j) = None then begin
        unknown_of.(i).(j) <- !count;
        incr count
      end
    done
  done;
  let n_unknowns = !count in
  (* i-major with j fastest: neighbour offsets bounded by nz. *)
  let m = Banded.create ~n:n_unknowns ~bandwidth:nz in
  for i = 0 to nx - 1 do
    for j = 1 to nz - 2 do
      let k = unknown_of.(i).(j) in
      if k >= 0 then begin
        let stamp neighbour cond =
          match neighbour with
          | None -> () (* outside the domain: Neumann, zero flux *)
          | Some (i', j') ->
            Banded.add_to m k k cond;
            let k' = unknown_of.(i').(j') in
            if k' >= 0 then Banded.add_to m k k' (-.cond)
          (* Dirichlet neighbours contribute to the RHS in [solve]. *)
        in
        stamp (if i > 0 then Some (i - 1, j) else None)
          (if i > 0 then cond_east.(i - 1).(j) else 0.);
        stamp (if i < nx - 1 then Some (i + 1, j) else None)
          (if i < nx - 1 then cond_east.(i).(j) else 0.);
        stamp (Some (i, j - 1)) cond_north.(i).(j - 1);
        stamp (Some (i, j + 1)) cond_north.(i).(j)
      end
    done
  done;
  Banded.factorize m;
  let t =
    {
      xs;
      zs;
      sheet_row;
      style = contact_style;
      unknown_of;
      dirichlet_of;
      matrix = m;
      cond_east;
      cond_north;
      n_unknowns;
      green = [||];
      bc_basis = [||];
    }
  in
  (* Poisson is linear in the sheet charge and in the four boundary
     values, so the sheet-row potential is G q + sum_d bc_d b_d: one
     factorized solve per sheet node builds the columns of G, four more
     the boundary basis vectors. *)
  let ns = nx - 2 in
  let zero_bc = { left = 0.; right = 0.; bottom = 0.; top = 0. } in
  let green = Array.make (ns * ns) 0. in
  for j = 0 to ns - 1 do
    let e_j = Array.init ns (fun i -> if i = j then 1. else 0.) in
    let col = plane_of_unknowns t (solve_unknowns t ~bc:zero_bc ~sheet_charge:e_j) in
    for i = 0 to ns - 1 do
      green.((i * ns) + j) <- col.(i)
    done
  done;
  let basis bc =
    plane_of_unknowns t (solve_unknowns t ~bc ~sheet_charge:(Array.make ns 0.))
  in
  let bc_basis =
    [|
      basis { zero_bc with left = 1. };
      basis { zero_bc with right = 1. };
      basis { zero_bc with bottom = 1. };
      basis { zero_bc with top = 1. };
    |]
  in
  { t with green; bc_basis }

let plane_potential t u =
  let nx = nx t in
  Array.init (nx - 2) (fun i -> u.(i + 1).(t.sheet_row))

let solve t ~bc ~sheet_charge =
  let x = solve_unknowns t ~bc ~sheet_charge in
  Array.init (nx t) (fun i ->
      Array.init (nz t) (fun j ->
          match t.dirichlet_of.(i).(j) with
          | Some d -> dirichlet_value bc d
          | None ->
            let k = t.unknown_of.(i).(j) in
            if k >= 0 then x.(k) else 0.))

let green_diag t =
  let ns = nx t - 2 in
  Array.init ns (fun i -> t.green.((i * ns) + i))

(* A direct solve, so there is no iteration count to report — just how
   often SCF calls it and what each costs. *)
let obs_solves = Obs.Counter.make "stack2d.solves"
let obs_solve_time = Obs.Timer.make "stack2d.solve"

let plane_solve t ~bc ~sheet_charge =
  Obs.Counter.incr obs_solves;
  let t0 = Obs.Timer.start obs_solve_time in
  (* Stop on every path: the sheet-charge-length invalid_arg must not
     leak the sample (gnrlint span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop obs_solve_time t0) @@ fun () ->
  let ns = nx t - 2 in
  if Array.length sheet_charge <> ns then
    invalid_arg "Stack2d.plane_solve: sheet_charge must have nx-2 entries";
  let g = t.green and b = t.bc_basis in
  Array.init ns (fun i ->
      let acc = ref 0. in
      let row = i * ns in
      for j = 0 to ns - 1 do
        acc := !acc +. (g.(row + j) *. sheet_charge.(j))
      done;
      !acc
      +. (bc.left *. b.(0).(i))
      +. (bc.right *. b.(1).(i))
      +. (bc.bottom *. b.(2).(i))
      +. (bc.top *. b.(3).(i)))
