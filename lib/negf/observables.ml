type bias = { mu_s : float; mu_d : float; kt : float }

let energy_grid ~lo ~hi ~de =
  if hi <= lo then invalid_arg "Observables.energy_grid: empty range";
  if de <= 0. then invalid_arg "Observables.energy_grid: non-positive spacing";
  let n = max 3 (1 + int_of_float (Float.ceil ((hi -. lo) /. de))) in
  Vec.linspace lo hi n

(* Energy points are embarrassingly parallel; all three observables fan
   the grid out over the persistent domain pool in fixed contiguous
   chunks and combine per-chunk partials in chunk order, so the result
   is bit-for-bit identical for every GNRFET_DOMAINS setting including
   the sequential [parallel:false] path (see docs/PERF.md).  Chunked
   trapezoid partials re-evaluate one boundary sample per chunk — a few
   extra RGF sweeps per grid, negligible against the win. *)

let domains_of parallel = if parallel then None else Some 1

(* Per-energy-grid instrumentation: one timer start/stop pair per
   observable call (never per energy point) and per-chunk counter adds,
   so the energy loop itself stays allocation-free; energies/sec is the
   counter divided by the timer (docs/OBS.md). *)
let transmission_spectrum ?eta ?parallel ?obs ?ctx ~egrid chain_at =
  let c = Ctx.resolve ?ctx ?parallel ?obs () in
  let parallel = c.Ctx.parallel and obs = c.Ctx.obs in
  let tm = Obs.Timer.make ~obs "negf.transmission_spectrum" in
  let c_energies = Obs.Counter.make ~obs "rgf.transmission_energies" in
  let t0 = Obs.Timer.start tm in
  let ne = Array.length egrid in
  let out = Array.make ne 0. in
  (* Chunks write disjoint index ranges of [out].  gnrlint: allow-shared *)
  Parallel.parallel_for ?domains:(domains_of parallel) ~n:ne (fun ~lo ~hi ->
      Obs.Counter.add c_energies (hi - lo);
      for k = lo to hi - 1 do
        out.(k) <- Rgf.transmission ?eta (chain_at egrid.(k)) egrid.(k)
      done);
  Obs.Timer.stop tm t0;
  out

let current ?eta ?parallel ?obs ?ctx ~bias ~egrid chain_at =
  let c = Ctx.resolve ?ctx ?parallel ?obs () in
  let parallel = c.Ctx.parallel and obs = c.Ctx.obs in
  let tm = Obs.Timer.make ~obs "negf.current" in
  let c_energies = Obs.Counter.make ~obs "rgf.transmission_energies" in
  let t0 = Obs.Timer.start tm in
  let { mu_s; mu_d; kt } = bias in
  let integrand k =
    let e = egrid.(k) in
    let window = Fermi.window ~mu1:mu_s ~mu2:mu_d ~kt e in
    if Float.abs window < 1e-14 then 0.
    else Rgf.transmission ?eta (chain_at e) e *. window
  in
  (* Trapezoid rule as a chunked reduction over the ne-1 intervals. *)
  let integral =
    Parallel.map_reduce ?domains:(domains_of parallel)
      ~n:(Array.length egrid - 1)
      ~worker:(fun _ -> ())
      ~body:(fun () ~lo ~hi ->
        Obs.Counter.add c_energies (hi - lo + 1);
        let acc = ref 0. in
        let prev = ref (integrand lo) in
        for k = lo to hi - 1 do
          let cur = integrand (k + 1) in
          acc := !acc +. (0.5 *. (egrid.(k + 1) -. egrid.(k)) *. (!prev +. cur));
          prev := cur
        done;
        !acc)
      ~combine:( +. ) 0.
  in
  Obs.Timer.stop tm t0;
  Const.g0 *. integral

(* Per-worker scratch for the charge integration: the RGF workspace plus
   the signed occupied spectral weight of every mode-site at the
   previous energy point. *)
type charge_scratch = { ws : Rgf.workspace; prev : float array }

let site_charge ?eta ?parallel ?obs ?ctx ~bias ~egrid ~midgap chains_at =
  let c = Ctx.resolve ?ctx ?parallel ?obs () in
  let parallel = c.Ctx.parallel and obs = c.Ctx.obs in
  let tm = Obs.Timer.make ~obs "negf.site_charge" in
  let c_energies = Obs.Counter.make ~obs "rgf.spectra_energies" in
  let t0 = Obs.Timer.start tm in
  (* The timer must stop on every path: the midgap-length invalid_arg
     below (and anything chains_at raises) would otherwise leak the
     sample (gnrlint span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop tm t0) @@ fun () ->
  let { mu_s; mu_d; kt } = bias in
  let chains0 = chains_at egrid.(0) in
  let nm = Array.length chains0 in
  if nm = 0 then invalid_arg "Observables.site_charge: no mode chains";
  let n = Array.length chains0.(0).Rgf.onsite in
  if Array.length midgap <> n then
    invalid_arg "Observables.site_charge: midgap length mismatch";
  let len = nm * n in
  (* The k = 0 chains are reused rather than rebuilt (chains_at may do
     real work per call, e.g. energy-dependent self-energies). *)
  let chains_of k = if k = 0 then chains0 else chains_at egrid.(k) in
  (* Trapezoid accumulation of the occupied spectral weight over the
     ne-1 energy intervals, chunked: each chunk samples its lower
     boundary and then one point per interval, integrating into fresh
     per-mode electron/hole accumulators (split by sign so electron and
     hole counts stay separately positive).  The signed weight per mode
     and site is an electron count above the local mid-gap weighted by
     the contact Fermi factors, a (negated) hole count below it weighted
     by the complements, so both integrals converge within a few kT of
     the contact potentials.  One kernel call and one pair of Fermi
     factors per energy serve every mode. *)
  let electrons, holes =
    Parallel.map_reduce ?domains:(domains_of parallel)
      ~n:(Array.length egrid - 1)
      ~worker:(fun _ -> { ws = Rgf.workspace ~hint:len (); prev = Array.make len 0. })
      ~body:(fun { ws; prev } ~lo ~hi ->
        (* One boundary sample plus one per interval (docs/OBS.md). *)
        Obs.Counter.add c_energies (hi - lo + 1);
        let electrons = Array.make len 0. and holes = Array.make len 0. in
        for k = lo to hi do
          let e = egrid.(k) in
          Rgf.spectra_into ?eta ws (chains_of k) e;
          let a1 = Rgf.a1 ws and a2 = Rgf.a2 ws in
          let fs = Fermi.occupation ~mu:mu_s ~kt e in
          let fd = Fermi.occupation ~mu:mu_d ~kt e in
          let interval = k > lo in
          let h = if interval then 0.5 *. (e -. egrid.(k - 1)) else 0. in
          for m = 0 to nm - 1 do
            for i = 0 to n - 1 do
              let x = (m * n) + i in
              let cur =
                if e >= midgap.(i) then (a1.(x) *. fs) +. (a2.(x) *. fd)
                else -.((a1.(x) *. (1. -. fs)) +. (a2.(x) *. (1. -. fd)))
              in
              if interval then begin
                let v = h *. (prev.(x) +. cur) in
                if v >= 0. then electrons.(x) <- electrons.(x) +. v
                else holes.(x) <- holes.(x) -. v
              end;
              prev.(x) <- cur
            done
          done
        done;
        (electrons, holes))
      ~combine:(fun (ea, ha) (eb, hb) ->
        for x = 0 to len - 1 do
          ea.(x) <- ea.(x) +. eb.(x);
          ha.(x) <- ha.(x) +. hb.(x)
        done;
        (ea, ha))
      (Array.make len 0., Array.make len 0.)
  in
  (* Spin degeneracy 2; 2π spectral normalization; electrons negative.
     Modes are summed in array order, each mode's net charge formed
     first. *)
  let scale = 2. *. Const.q /. (2. *. Float.pi) in
  let total = Array.make n 0. in
  for m = 0 to nm - 1 do
    let b = m * n in
    for i = 0 to n - 1 do
      total.(i) <- total.(i) +. (-.scale *. (electrons.(b + i) -. holes.(b + i)))
    done
  done;
  total
