type state = float array

type waveform = { times : float array; voltages : float array array }

(* Compiled view of a netlist. *)
type compiled = {
  n_nodes : int;
  unknown_of : int array; (* node -> unknown index or -1 *)
  n_unknowns : int;
  sources : (int * (float -> float)) list;
  resistors : (int * int * float) list;
  linear_caps : (int * int * float) list;
  fets : (int * int * int * Fet_model.t) list;
}

let compile net =
  let n = Netlist.node_count net in
  let unknown_of = Array.make n (-1) in
  let count = ref 0 in
  for node = 1 to n - 1 do
    if not (Netlist.is_driven net node) then begin
      unknown_of.(node) <- !count;
      incr count
    end
  done;
  let resistors = ref [] and caps = ref [] and fets = ref [] in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { a; b; ohms } -> resistors := (a, b, ohms) :: !resistors
      | Netlist.Capacitor { a; b; farads } -> caps := (a, b, farads) :: !caps
      | Netlist.Fet { g; d; s; model } -> fets := (g, d, s, model) :: !fets)
    (Netlist.elements net);
  {
    n_nodes = n;
    unknown_of;
    n_unknowns = !count;
    sources = Netlist.driven net;
    resistors = !resistors;
    linear_caps = !caps;
    fets = !fets;
  }

(* Full node-voltage vector from the unknown vector at a given time;
   [vscale] scales the sources (source-stepping homotopy). *)
let expand ?(vscale = 1.) c x time =
  let v = Array.make c.n_nodes 0. in
  List.iter (fun (node, wave) -> v.(node) <- vscale *. wave time) c.sources;
  for node = 1 to c.n_nodes - 1 do
    let k = c.unknown_of.(node) in
    if k >= 0 then v.(node) <- x.(k)
  done;
  v

(* Capacitive branches with their companion-model state. *)
type cap_branch = {
  ca : int;
  cb : int;
  mutable v_prev : float;
  mutable i_prev : float;
  mutable c_step : float; (* capacitance frozen at the start of the step *)
}

(* Where branch capacitances come from: a fixed value, or both intrinsic
   capacitances of one FET, read with one [caps] call. *)
type cap_source =
  | Linear of cap_branch * float
  | Fet_caps of {
      g : int;
      d : int;
      s : int;
      model : Fet_model.t;
      gs : cap_branch;
      gd : cap_branch;
    }

let branch a b c_step = { ca = a; cb = b; v_prev = 0.; i_prev = 0.; c_step }

(* Linear capacitors first, then each FET's (gate-source, gate-drain)
   pair: [cap_branches] lists the branches in the same order. *)
let cap_sources c =
  List.map (fun (a, b, farads) -> Linear (branch a b farads, farads)) c.linear_caps
  @ List.map
      (fun (g, d, s, model) ->
        Fet_caps { g; d; s; model; gs = branch g s 0.; gd = branch g d 0. })
      c.fets

let cap_branches sources =
  List.concat_map
    (function Linear (br, _) -> [ br ] | Fet_caps { gs; gd; _ } -> [ gs; gd ])
    sources

(* [f br c] for every branch of [sources] with its capacitance [c] at node
   voltages [v]; [buf] is the three-slot model buffer. *)
let iter_caps sources buf v f =
  List.iter
    (function
      | Linear (br, farads) -> f br farads
      | Fet_caps { g; d; s; model; gs; gd } ->
        model.Fet_model.caps ~vgs:(v.(g) -. v.(s)) ~vds:(v.(d) -. v.(s)) buf;
        f gs buf.(0);
        f gd buf.(1))
    sources

(* Newton assembly: residual f (KCL, currents leaving each unknown node)
   and, when [jac] is given, the Jacobian stamped into it (the FET rows
   from the model partials).  [dyn] carries the companion-model terms
   when in a transient step. *)
type dyn = { dt : float; branches : cap_branch list }

let assemble ?vscale c x time gmin dyn jac =
  let v = expand ?vscale c x time in
  let f = Array.make c.n_unknowns 0. in
  let add_current node i =
    let k = c.unknown_of.(node) in
    if k >= 0 then f.(k) <- f.(k) +. i
  in
  let add_conductance node other g =
    match jac with
    | None -> ()
    | Some j ->
      let k = c.unknown_of.(node) in
      if k >= 0 then begin
        Matrix.add_to j k k g;
        let k' = c.unknown_of.(other) in
        if k' >= 0 then Matrix.add_to j k k' (-.g)
      end
  in
  (* gmin to ground stabilizes floating regions during homotopy. *)
  if gmin > 0. then
    for node = 1 to c.n_nodes - 1 do
      let k = c.unknown_of.(node) in
      if k >= 0 then begin
        f.(k) <- f.(k) +. (gmin *. v.(node));
        Option.iter (fun j -> Matrix.add_to j k k gmin) jac
      end
    done;
  List.iter
    (fun (a, b, ohms) ->
      let g = 1. /. ohms in
      let i = g *. (v.(a) -. v.(b)) in
      add_current a i;
      add_current b (-.i);
      add_conductance a b g;
      add_conductance b a g)
    c.resistors;
  let buf = Array.make 3 0. in
  List.iter
    (fun (gn, dn, sn, (m : Fet_model.t)) ->
      m.current ~vgs:(v.(gn) -. v.(sn)) ~vds:(v.(dn) -. v.(sn)) buf;
      let i0 = buf.(0) in
      add_current dn i0;
      add_current sn (-.i0);
      match jac with
      | None -> ()
      | Some j ->
        let gm = buf.(1) and gds = buf.(2) in
        let stamp_row node sign =
          let k = c.unknown_of.(node) in
          if k >= 0 then begin
            let put terminal gpart =
              let k' = c.unknown_of.(terminal) in
              if k' >= 0 then Matrix.add_to j k k' (sign *. gpart)
            in
            put gn gm;
            put dn gds;
            put sn (-.(gm +. gds))
          end
        in
        stamp_row dn 1.;
        stamp_row sn (-1.))
    c.fets;
  (match dyn with
  | None -> ()
  | Some { dt; branches } ->
    List.iter
      (fun br ->
        let gc = 2. *. br.c_step /. dt in
        let vb = v.(br.ca) -. v.(br.cb) in
        (* Trapezoid companion: i = gc*(v - v_prev) - i_prev. *)
        let i = (gc *. (vb -. br.v_prev)) -. br.i_prev in
        add_current br.ca i;
        add_current br.cb (-.i);
        add_conductance br.ca br.cb gc;
        add_conductance br.cb br.ca gc)
      branches);
  f

let debug = Sys.getenv_opt "GNRFET_MNA_DEBUG" <> None

(* Circuit-level observability (docs/OBS.md).  Newton iterations are
   counted across all homotopy rungs, so iterations-per-dc-solve out of a
   snapshot reflects the true cost of hard bias points. *)
let obs_dc_solves = Obs.Counter.make "mna.dc_solves"
let obs_newton_iters = Obs.Counter.make "mna.newton_iterations"
let obs_transient_steps = Obs.Counter.make "mna.transient_steps"
let obs_transient_retries = Obs.Counter.make "mna.transient_retries"
let obs_gmin_retries = Obs.Counter.make "robust.mna.transient_gmin_retries"
let obs_dc_time = Obs.Timer.make "mna.solve_dc"

(* Fault-injection site (docs/ROBUST.md): an armed campaign can make a
   Newton solve report failure on entry — the same [None] the callers'
   escalation ladders (gmin stepping, source stepping, substep
   subdivision) already recover from.  Single branch when disarmed. *)
let fault_newton = Fault.site "mna.newton"

let has_nan a = Array.exists (fun v -> not (Float.is_finite v)) a

let residual_norm ?vscale c x time gmin dyn =
  Vec.norm_inf (assemble ?vscale c x time gmin dyn None)

let newton ?(max_iter = 80) ?(v_limit = 0.3) ?vscale c x0 time gmin dyn =
  let x = ref (Array.copy x0) in
  if c.n_unknowns = 0 then Some !x
  else if Fault.should_fail fault_newton then None
  else begin
    let rec loop it =
      Obs.Counter.incr obs_newton_iters;
      let j = Matrix.create (max 1 c.n_unknowns) (max 1 c.n_unknowns) in
      let f = assemble ?vscale c !x time gmin dyn (Some j) in
      let fnorm = Vec.norm_inf f in
      if Float.is_nan fnorm then begin
        if debug then Printf.eprintf "newton: NaN residual at it=%d t=%g\n%!" it time;
        None
      end
      else begin
        match Matrix.solve j (Array.map (fun v -> -.v) f) with
        | exception (Failure _ | Numerics_error.Singular _) ->
          if debug then
            Printf.eprintf "newton: singular J at it=%d fnorm=%g\n%!" it fnorm;
          None
        | dx when has_nan dx ->
          if debug then Printf.eprintf "newton: NaN step at it=%d\n%!" it;
          None
        | dx ->
          (* Voltage limiting keeps the exponential models in range... *)
          let step = Vec.norm_inf dx in
          let scale = if step > v_limit then v_limit /. step else 1. in
          (* ...and a backtracking line search keeps the residual from
             growing, which otherwise spirals near model kinks. *)
          let rec try_alpha alpha tries best =
            let trial =
              Array.mapi (fun k v -> v +. (alpha *. scale *. dx.(k))) !x
            in
            let fnew = residual_norm ?vscale c trial time gmin dyn in
            let best =
              match best with
              | Some (_, fb) when Float.is_nan fnew || fb <= fnew -> best
              | Some _ | None -> if Float.is_nan fnew then best else Some (trial, fnew)
            in
            if (Float.is_nan fnew || fnew > fnorm *. (1. +. 1e-9)) && tries < 10 then
              try_alpha (alpha /. 2.) (tries + 1) best
            else begin
              match best with Some (t, _) -> t | None -> trial
            end
          in
          x := try_alpha 1. 0 None;
          if step *. scale < 1e-9 && fnorm < 1e-12 then Some !x
          else if it >= max_iter then begin
            if fnorm < 1e-10 then Some !x
            else begin
              if debug then
                Printf.eprintf "newton: no convergence fnorm=%g step=%g\n%!" fnorm
                  (step *. scale);
              None
            end
          end
          else loop (it + 1)
      end
    in
    loop 0
  end

let solve_dc ?x0 ?(time = 0.) net =
  Obs.Counter.incr obs_dc_solves;
  let t_dc = Obs.Timer.start obs_dc_time in
  (* Stop on every path: the bad-x0 invalid_arg and the terminal
     Newton_failure must not leak the sample (gnrlint span-balance). *)
  Fun.protect ~finally:(fun () -> Obs.Timer.stop obs_dc_time t_dc) @@ fun () ->
  let c = compile net in
  let x0 =
    match x0 with
    | Some x when Array.length x = c.n_nodes ->
      (* Accept full node vectors for convenience. *)
      Array.init c.n_unknowns (fun _ -> 0.)
      |> fun u ->
      for node = 1 to c.n_nodes - 1 do
        let k = c.unknown_of.(node) in
        if k >= 0 then u.(k) <- x.(node)
      done;
      u
    | Some x when Array.length x = c.n_unknowns -> Array.copy x
    | Some _ -> invalid_arg "Mna.solve_dc: bad x0 length"
    | None -> Array.make c.n_unknowns 0.
  in
  let newton ?vscale c x0 time gmin dyn =
    newton ~max_iter:200 ~v_limit:0.15 ?vscale c x0 time gmin dyn
  in
  let result =
    match newton c x0 time 0. None with
    | Some x -> Some x
    | None ->
      (* gmin-stepping homotopy, tolerant of failed rungs: each rung warm
         starts from the best point so far, and a converged rung at
         gmin <= 1e-10 is acceptable as the answer (its stepping error is
         below gmin * VDD, i.e. sub-pA). *)
      let x = ref x0 and last_good = ref None in
      List.iter
        (fun g ->
          match newton c !x time g None with
          | Some x' ->
            x := x';
            if g <= 1e-10 then last_good := Some x'
          | None -> ())
        [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; 1e-12 ];
      (match newton c !x time 0. None with
      | Some _ as final -> final
      | None -> begin
        match !last_good with
        | Some _ as good -> good
        | None ->
          (* Adaptive source stepping: ramp the supplies up from zero,
             halving the ramp step on failure.  Tracking the solution
             continuously from the origin stays on the physical branch of
             the ambipolar devices, whose non-monotone I(V) gives plain
             Newton multiple basins. *)
          let x = ref (Array.make c.n_unknowns 0.) in
          let lambda = ref 0. and dl = ref 0.25 and stuck = ref false in
          while !lambda < 1. && not !stuck do
            let target = Float.min 1. (!lambda +. !dl) in
            (match newton ~vscale:target c !x time 1e-12 None with
            | Some x' ->
              x := x';
              lambda := target;
              dl := Float.min 0.25 (!dl *. 2.)
            | None ->
              dl := !dl /. 2.;
              if !dl < 1e-3 then stuck := true)
          done;
          if !stuck then None
          else begin
            match newton c !x time 0. None with
            | Some _ as final -> final
            | None -> newton c !x time 1e-12 None
          end
      end)
  in
  match result with
  | Some x -> expand c x time
  | None -> Robust_error.raise_ (Robust_error.Newton_failure { analysis = "dc"; time })

let transient ?x0 ?(dt_div = 4) net ~t_stop ~dt =
  if t_stop <= 0. || dt <= 0. then invalid_arg "Mna.transient: bad time range";
  let c = compile net in
  let v0 =
    match x0 with
    | Some v when Array.length v = c.n_nodes -> Array.copy v
    | Some _ -> invalid_arg "Mna.transient: x0 must be a full node vector"
    | None -> solve_dc ~time:0. net
  in
  let sources = cap_sources c in
  let branches = cap_branches sources in
  let buf = Array.make 3 0. in
  List.iter
    (fun br ->
      br.v_prev <- v0.(br.ca) -. v0.(br.cb);
      br.i_prev <- 0.)
    branches;
  (* Guard against a zero-width final step when t_stop is an exact
     multiple of dt (the companion conductance would blow up). *)
  let n_steps = max 1 (int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9))) in
  let times =
    Array.init (n_steps + 1) (fun k ->
        if k = n_steps then t_stop else dt *. float_of_int k)
  in
  let voltages = Array.make (n_steps + 1) v0 in
  let x = ref (Array.init c.n_unknowns (fun _ -> 0.)) in
  for node = 1 to c.n_nodes - 1 do
    let k = c.unknown_of.(node) in
    if k >= 0 then !x.(k) <- v0.(node)
  done;
  let advance ?(gmin = 0.) x_in v_start t_next h =
    (* Freeze table capacitances at start-of-step bias. *)
    iter_caps sources buf v_start (fun br cap -> br.c_step <- Float.max 1e-21 cap);
    match newton c x_in t_next gmin (Some { dt = h; branches }) with
    | Some x' ->
      let v' = expand c x' t_next in
      List.iter
        (fun br ->
          let vb = v'.(br.ca) -. v'.(br.cb) in
          let gc = 2. *. br.c_step /. h in
          let i = (gc *. (vb -. br.v_prev)) -. br.i_prev in
          br.v_prev <- vb;
          br.i_prev <- i)
        branches;
      Some (x', v')
    | None -> None
  in
  (* Escalation ladder for a failed step (docs/ROBUST.md): subdivide into
     [dt_div] substeps, recursing one level deeper (dt/dt_div^2) when a
     substep fails in turn; at the bottom a still-failing substep gets a
     last attempt with a small stabilizing gmin before the typed error
     surfaces.  A step that succeeds outright (or after one level of
     substeps, the pre-ladder behavior) performs exactly the calls it
     always did, so healthy transients are bit-for-bit unchanged. *)
  let rec advance_robust ~depth x_in v_start ~t_prev ~t_next ~h =
    match advance x_in v_start t_next h with
    | Some _ as ok -> ok
    | None when depth >= 2 ->
      Obs.Counter.incr obs_gmin_retries;
      advance ~gmin:1e-9 x_in v_start t_next h
    | None ->
      Obs.Counter.incr obs_transient_retries;
      let hs = h /. float_of_int dt_div in
      let rec subs sub xs vs =
        if sub > dt_div then Some (xs, vs)
        else begin
          let t_sub_prev = t_prev +. (hs *. float_of_int (sub - 1)) in
          let t_sub = t_prev +. (hs *. float_of_int sub) in
          match
            advance_robust ~depth:(depth + 1) xs vs ~t_prev:t_sub_prev
              ~t_next:t_sub ~h:hs
          with
          | Some (x', v') -> subs (sub + 1) x' v'
          | None -> None
        end
      in
      subs 1 x_in v_start
  in
  for k = 1 to n_steps do
    Obs.Counter.incr obs_transient_steps;
    let t_prev = times.(k - 1) and t_next = times.(k) in
    let v_start = voltages.(k - 1) in
    match
      advance_robust ~depth:0 !x v_start ~t_prev ~t_next ~h:(t_next -. t_prev)
    with
    | Some (x', v') ->
      x := x';
      voltages.(k) <- v'
    | None ->
      Robust_error.raise_
        (Robust_error.Newton_failure { analysis = "transient"; time = t_next })
  done;
  { times; voltages }

let node_trace wf node = Array.map (fun v -> v.(node)) wf.voltages

let waveform_to_csv ?nodes wf =
  let n_nodes = if Array.length wf.voltages = 0 then 0 else Array.length wf.voltages.(0) in
  let nodes = match nodes with Some l -> l | None -> List.init n_nodes Fun.id in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t";
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf ",v%d" n)) nodes;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun k t ->
      Buffer.add_string buf (Printf.sprintf "%.8g" t);
      List.iter
        (fun n -> Buffer.add_string buf (Printf.sprintf ",%.6g" wf.voltages.(k).(n)))
        nodes;
      Buffer.add_char buf '\n')
    wf.times;
  Buffer.contents buf

let static_current c buf node v =
  let acc = ref 0. in
  List.iter
    (fun (a, b, ohms) ->
      if a = node then acc := !acc +. ((v.(a) -. v.(b)) /. ohms)
      else if b = node then acc := !acc +. ((v.(b) -. v.(a)) /. ohms))
    c.resistors;
  List.iter
    (fun (g, d, s, (m : Fet_model.t)) ->
      if d = node || s = node then begin
        m.current ~vgs:(v.(g) -. v.(s)) ~vds:(v.(d) -. v.(s)) buf;
        if d = node then acc := !acc +. buf.(0) else acc := !acc -. buf.(0)
      end)
    c.fets;
  !acc

let dc_current net state node =
  let c = compile net in
  if not (List.mem_assoc node c.sources) then
    invalid_arg "Mna.dc_current: node is not driven";
  static_current c (Array.make 3 0.) node state

let source_current net wf node =
  let c = compile net in
  if not (List.mem_assoc node c.sources) then
    invalid_arg "Mna.source_current: node is not driven";
  let nk = Array.length wf.times in
  let buf = Array.make 3 0. in
  (* Displacement currents via central differences of the branch charge,
     over the capacitance sources with a branch incident on [node]. *)
  let incident br = br.ca = node || br.cb = node in
  let sources =
    List.filter
      (function
        | Linear (br, _) -> incident br
        | Fet_caps { gs; gd; _ } -> incident gs || incident gd)
      (cap_sources c)
  in
  Array.init nk (fun k ->
      let v = wf.voltages.(k) in
      let i_static = static_current c buf node v in
      let i_disp =
        if k = 0 || k = nk - 1 then 0.
        else begin
          let dtc = wf.times.(k + 1) -. wf.times.(k - 1) in
          let acc = ref 0. in
          iter_caps sources buf v (fun br cap ->
              if incident br then begin
                let sign = if br.ca = node then 1. else -1. in
                let vb k' = wf.voltages.(k').(br.ca) -. wf.voltages.(k').(br.cb) in
                acc := !acc +. (sign *. cap *. (vb (k + 1) -. vb (k - 1)) /. dtc)
              end);
          !acc
        end
      in
      i_static +. i_disp)
