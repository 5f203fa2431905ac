(* The benchmark's own tests: the tail-percentile helper (the reported
   percentile is the highest one with at least ten samples beyond it,
   whatever the sample count), the reference-second arithmetic, and the
   metric inventory the workloads report against BENCHMARK.json. *)

let check_float = Alcotest.(check (float 0.))

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_distinct () =
  let t = Pb_tail.tail (ascending 100) in
  check_float "value" 90. t.Pb_tail.value;
  check_float "percentile" 90. t.Pb_tail.percentile;
  Alcotest.(check int) "beyond" 10 t.Pb_tail.beyond;
  Alcotest.(check int) "count" 100 t.Pb_tail.count;
  let t = Pb_tail.tail (ascending 47) in
  check_float "value n=47" 37. t.Pb_tail.value;
  Alcotest.(check int) "beyond n=47" 10 t.Pb_tail.beyond

let test_order_independent () =
  let xs = ascending 200 in
  let shuffled = Array.init 200 (fun i -> xs.((i * 73) mod 200)) in
  let a = Pb_tail.tail xs and b = Pb_tail.tail shuffled in
  check_float "same tail" a.Pb_tail.value b.Pb_tail.value;
  check_float "input untouched" 1. shuffled.(0)

let test_ties () =
  (* 85 ones then 15 twos: no rank leaves ten samples above a 2, so the
     tail is the highest 1 with 15 beyond it. *)
  let xs = Array.init 100 (fun i -> if i < 85 then 1. else 2.) in
  let t = Pb_tail.tail xs in
  check_float "value" 1. t.Pb_tail.value;
  Alcotest.(check int) "beyond" 15 t.Pb_tail.beyond;
  check_float "percentile" 85. t.Pb_tail.percentile

let test_too_few () =
  let t = Pb_tail.tail (ascending 10) in
  check_float "max" 10. t.Pb_tail.value;
  check_float "p100" 100. t.Pb_tail.percentile;
  Alcotest.(check int) "none beyond" 0 t.Pb_tail.beyond;
  let t = Pb_tail.tail (ascending 11) in
  check_float "n=11 smallest" 1. t.Pb_tail.value;
  Alcotest.(check int) "n=11 beyond" 10 t.Pb_tail.beyond;
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Pb_tail.tail [||]).Pb_tail.value)

let test_median () =
  check_float "odd" 2. (Pb_tail.median [| 3.; 1.; 2. |]);
  check_float "even" 2.5 (Pb_tail.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check bool) "empty" true (Float.is_nan (Pb_tail.median [||]))

(* BENCHMARK.json and Pb_common list the same metrics, in the same
   order, with the same units. *)
let test_inventory () =
  let json =
    match Sjson.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let listed key =
    match Option.bind (Sjson.member key json) Sjson.to_list with
    | None -> Alcotest.fail ("BENCHMARK.json has no " ^ key)
    | Some ms ->
      List.map
        (fun m ->
          let str k = Option.value ~default:"" (Option.bind (Sjson.member k m) Sjson.to_str) in
          (str "name", str "unit"))
        ms
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Pb_common.e2e_metrics (listed "end_to_end");
  Alcotest.check pairs "per_layer" Pb_common.layer_metrics (listed "per_layer")

(* Pb_speed: wall time scaled by the reference over the local kernel
   median, less the kernel's own runs inside the interval. *)
let reference = Pb_speed.reference_ms *. 1e-3

let close = Alcotest.(check (float 1e-9))

(* Samples every 0.1 s from t = 0, each taking [dur t]. *)
let samples ~until dur =
  List.init (int_of_float (until /. 0.1) + 1) (fun i ->
      let at = 0.1 *. float_of_int i in
      (at, dur at))

let test_speed_constant () =
  let sp = Pb_speed.of_samples (samples ~until:10. (fun _ -> reference)) in
  close "no sample inside" 0.08 (Pb_speed.seconds sp 0.01 0.09);
  close "five samples inside, their runs taken off" (0.5 -. (5. *. reference))
    (Pb_speed.seconds sp 0.25 0.75);
  close "before the first sample" 1. (Pb_speed.seconds sp (-1.) 0.);
  close "after the last sample" 1. (Pb_speed.seconds sp 11. 12.)

let test_speed_slow () =
  (* A host at half speed: the kernel takes twice the reference, and a
     wall second reads half a reference second. *)
  let sp = Pb_speed.of_samples (samples ~until:10. (fun _ -> 2. *. reference)) in
  close "half" 0.04 (Pb_speed.seconds sp 0.01 0.09);
  (* Speed changes at t = 5 s: each side reads at its own speed. *)
  let sp =
    Pb_speed.of_samples (samples ~until:10. (fun at -> if at < 5. then reference else 2. *. reference))
  in
  close "fast side" 0.08 (Pb_speed.seconds sp 2.01 2.09);
  close "slow side" 0.04 (Pb_speed.seconds sp 8.01 8.09)

let test_speed_outlier () =
  (* One stretched sample does not move the speed around it. *)
  let sp =
    Pb_speed.of_samples
      (samples ~until:10. (fun at -> if Float.abs (at -. 3.) < 0.05 then 10. *. reference else reference))
  in
  close "median" 0.08 (Pb_speed.seconds sp 3.01 3.09);
  Alcotest.(check bool) "never negative" true (Pb_speed.seconds sp 3. 3.0001 >= 0.)

let () =
  Alcotest.run "perfbench"
    [
      ("inventory", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_inventory ]);
      ( "speed",
        [
          Alcotest.test_case "reference speed" `Quick test_speed_constant;
          Alcotest.test_case "slow and changing host" `Quick test_speed_slow;
          Alcotest.test_case "stretched sample" `Quick test_speed_outlier;
        ] );
      ( "tail",
        [
          Alcotest.test_case "distinct samples" `Quick test_distinct;
          Alcotest.test_case "order independent" `Quick test_order_independent;
          Alcotest.test_case "ties" `Quick test_ties;
          Alcotest.test_case "too few samples" `Quick test_too_few;
          Alcotest.test_case "median" `Quick test_median;
        ] );
    ]
