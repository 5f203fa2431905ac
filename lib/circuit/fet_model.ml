type t = {
  name : string;
  current : vgs:float -> vds:float -> float array -> unit;
  caps : vgs:float -> vds:float -> float array -> unit;
}

let id m ~vgs ~vds =
  let out = Array.make 3 0. in
  m.current ~vgs ~vds out;
  out.(0)

let cap k m ~vgs ~vds =
  let out = Array.make 3 0. in
  m.caps ~vgs ~vds out;
  out.(k)

let cgs = cap 0

let cgd = cap 1

(* Forward-difference step of [of_functions], V. *)
let fd_step = 1e-6

let of_functions ~name ~id ~cgs ~cgd =
  {
    name;
    current =
      (fun ~vgs ~vds out ->
        let i0 = id ~vgs ~vds in
        out.(0) <- i0;
        out.(1) <- (id ~vgs:(vgs +. fd_step) ~vds -. i0) /. fd_step;
        out.(2) <- (id ~vgs ~vds:(vds +. fd_step) -. i0) /. fd_step);
    caps =
      (fun ~vgs ~vds out ->
        out.(0) <- cgs ~vgs ~vds;
        out.(1) <- cgd ~vgs ~vds);
  }

(* Terms summed in list order from 0, as a left fold over the models; a
   single model is its own sum. *)
let parallel name = function
  | [] -> invalid_arg "Fet_model.parallel: empty list"
  | [ m ] -> { m with name }
  | models ->
    let sum n eval ~vgs ~vds out =
      let part = Array.make 3 0. in
      Array.fill out 0 n 0.;
      List.iter
        (fun m ->
          eval m ~vgs ~vds part;
          for k = 0 to n - 1 do
            out.(k) <- out.(k) +. part.(k)
          done)
        models
    in
    { name; current = sum 3 (fun m -> m.current); caps = sum 2 (fun m -> m.caps) }

let scale name k m =
  let scaled n eval ~vgs ~vds out =
    eval ~vgs ~vds out;
    for i = 0 to n - 1 do
      out.(i) <- k *. out.(i)
    done
  in
  { name; current = scaled 3 m.current; caps = scaled 2 m.caps }
