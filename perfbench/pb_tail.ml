type tail = { percentile : float; value : float; beyond : int; count : int }

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* The tail keeps at least this many samples beyond it. *)
let min_beyond = 10

let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  let at i =
    {
      percentile = 100. *. float_of_int (i + 1) /. float_of_int n;
      value = s.(i);
      beyond = n - i - 1;
      count = n;
    }
  in
  let fallback =
    {
      percentile = 100.;
      value = (if n = 0 then nan else s.(n - 1));
      beyond = 0;
      count = n;
    }
  in
  (* Index i (0-based) leaves exactly [min_beyond] samples above it
     unless it ties with its successor; a tie group shares one count of
     samples beyond, so step below the whole group. *)
  let i = n - min_beyond - 1 in
  if i < 0 then fallback
  else if Float.compare s.(i) s.(i + 1) < 0 then at i
  else begin
    let k = ref i in
    while !k >= 0 && Float.compare s.(!k) s.(i) = 0 do decr k done;
    if !k < 0 then fallback else at !k
  end

let describe t =
  Printf.sprintf "p%.2f (n=%d, %d beyond)" t.percentile t.count t.beyond
