(* Machine-speed normalisation: see pb_speed.mli. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let reference_ms = 3.0

(* The reference kernel, about 3 ms in three parts that lean on what the
   workloads lean on: a complex Green's-function sweep (floating-point
   division latency, as in the NEGF chain), a stencil over 2 MB (memory
   traffic, as in the Poisson solve) and float printing, parsing and
   short-lived allocation (as in the circuit code and the serve codec).
   It allocates its arrays once and returns nothing. *)
let sites = 256

let onsite = Array.init sites (fun i -> 0.1 *. float_of_int (i mod 9))

let gr = Array.make sites 0.

let gi = Array.make sites 0.

let sweep () =
  for e = 0 to 255 do
    let er = -0.5 +. (0.004 *. float_of_int e) and ei = 1e-3 in
    let pr = ref 0. and pi = ref 0. in
    for i = 0 to sites - 1 do
      let zr = er -. onsite.(i) -. !pr and zi = ei -. !pi in
      let d = (zr *. zr) +. (zi *. zi) in
      let r = zr /. d and m = -.zi /. d in
      gr.(i) <- r;
      gi.(i) <- m;
      pr := 0.81 *. r;
      pi := 0.81 *. m
    done
  done

let cells = 1 lsl 17

let src = Array.init cells (fun i -> float_of_int (i land 255))

let dst = Array.make cells 0.

let stencil () =
  for _ = 1 to 2 do
    for i = 1 to cells - 2 do
      dst.(i) <- (0.25 *. (src.(i - 1) +. src.(i + 1))) +. (0.5 *. src.(i))
    done
  done

let codec () =
  let acc = ref 0. in
  for i = 0 to 699 do
    let s = Printf.sprintf "%.17g" (float_of_int i *. 1.1) in
    let l = List.init 8 (fun k -> (float_of_int k, s)) in
    acc := !acc +. float_of_string s +. fst (List.nth l 3)
  done;
  ignore (Sys.opaque_identity !acc)

let kernel () =
  sweep ();
  stencil ();
  codec ()

(* Only the sampler thread adds samples once it runs; {!stop} reads them
   after joining it. *)
type t = {
  mutable samples : (float * float) list;  (** start (monotonic), CPU seconds *)
  mutable running : bool;
  mutable thread : Thread.t option;
}

let interval = 0.1

(* The process's CPU seconds.  A sample is timed in CPU time, not wall
   time: the other threads of the process wait for the runtime lock
   while the kernel runs, so the process's CPU time is the kernel's, and
   a process the scheduler runs in between on the same CPU (the serve
   daemon) does not stretch it. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime

let record t =
  let at = now () and c0 = cpu () in
  kernel ();
  t.samples <- (at, cpu () -. c0) :: t.samples

let start () =
  let t = { samples = []; running = true; thread = None } in
  (* The first pass faults the arrays in; it is not a sample. *)
  kernel ();
  for _ = 1 to 3 do record t done;
  let rec loop () =
    Thread.delay interval;
    if t.running then begin
      record t;
      loop ()
    end
  in
  t.thread <- Some (Thread.create loop ());
  t

(* Speed holds piecewise constant between samples: each sample owns the
   time from halfway after its predecessor to halfway before its
   successor (the first and last reach to the ends of time), at the
   median duration of itself and its [window] nearest neighbours on
   each side.  The host's speed holds for half a second or more at a
   time; the median keeps a sample the scheduler or a waiting thread
   stretched from moving it. *)
let window = 2

type speed = {
  starts : float array;  (** sample start times, ascending *)
  bounds : float array;  (** cell [i] ends at [bounds.(i)] *)
  local : float array;  (** per cell, median kernel seconds *)
  durs : float array;
}

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let of_samples samples =
  let samples = Array.of_list samples in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) samples;
  let n = Array.length samples in
  if n = 0 then invalid_arg "Pb_speed.of_samples: no samples";
  let starts = Array.map fst samples and durs = Array.map snd samples in
  let bounds =
    Array.init n (fun i -> if i = n - 1 then infinity else (starts.(i) +. starts.(i + 1)) /. 2.)
  in
  let local =
    Array.init n (fun i ->
        let lo = max 0 (min (i - window) (n - 1 - (2 * window))) in
        let hi = min (n - 1) (lo + (2 * window)) in
        median (Array.sub durs lo (hi - lo + 1)))
  in
  { starts; bounds; local; durs }

let stop t =
  t.running <- false;
  Option.iter Thread.join t.thread;
  of_samples t.samples

let seconds sp a b =
  let n = Array.length sp.starts in
  (* The first cell that ends after [a]. *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sp.bounds.(mid) <= a then first (mid + 1) hi else first lo mid
  in
  let reference = reference_ms *. 1e-3 in
  let total = ref 0. and inside = ref 0 in
  let i = ref (first 0 (n - 1)) and lo = ref a in
  while !lo < b && !i < n do
    let hi = Float.min b sp.bounds.(!i) in
    total := !total +. ((hi -. !lo) *. reference /. sp.local.(!i));
    if sp.starts.(!i) >= a && sp.starts.(!i) < b then incr inside;
    lo := hi;
    incr i
  done;
  Float.max 0. (!total -. (float_of_int !inside *. reference))

let kernel_ms sp = median sp.durs *. 1e3

let describe sp =
  let s = Array.copy sp.durs in
  Array.sort Float.compare s;
  let q p = s.(min (Array.length s - 1) (int_of_float (p *. float_of_int (Array.length s)))) in
  Printf.sprintf "%d kernel samples, median %.3f ms (quartiles %.3f..%.3f ms; reference %.3f ms)"
    (Array.length s) (kernel_ms sp) (q 0.25 *. 1e3) (q 0.75 *. 1e3) reference_ms
