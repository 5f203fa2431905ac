(* The serve workload: a `gnrfet_cli serve --socket` daemon over a private
   table directory holding the fixture table under K device keys, driven
   closed loop by two connections with a seeded, skewed request mix.  It
   is the only workload on the table read path (mmap, CRC, convert), the
   wire codec and the LRU. *)

open Pb_common

let fixture_file = Pb_explore.fixture_file

(* K on-disk devices, more than the LRU holds, so the LRU evicts. *)
let devices = 12

let lru = 8

let connections = 2

(* Each block of 1000 requests per connection holds exactly this mix, in
   a seeded order: the class counts never vary, only their order and
   their arguments. *)
let block = 1000

let tables_per_block = 30

let misses_per_block = 1

(* Requests every connection completes whatever the time budget, so the
   output digest always covers the same prefix. *)
let min_requests = 2000

(* A traced run drives this many requests per connection through an
   untraced and a traced daemon in turn. *)
let trace_requests = 6000

let setup_repeats = 3

let device_params k = { (Params.default ()) with Params.gate_offset = 0.01 *. float_of_int k }

(* The micro-device behind every miss: a 6 nm channel on a coarse energy
   grid and a 3 x 2 bias grid, so a generation costs tens of ms once its
   geometry is set up.  Each miss has its own gate offset, so its own key. *)
let micro_grid = { Iv_table.vg_min = 0.; vg_max = 0.4; n_vg = 3; vd_max = 0.3; n_vd = 2 }

let micro_params offset =
  {
    (Params.default ()) with
    Params.channel_length = 6e-9;
    energy_step = 8e-3;
    energy_margin = 0.3;
    gate_offset = offset;
  }

let warm_up_offset = 0.1

(* Miss offsets step by 1e-6 V: distinct in the cache key, whose %g keeps
   six digits, and all near the warm-up's 0.1 V, where every micro-device
   converges without escalation.  From about 0.1008 V on, each generation
   escalates, quarantines a point and takes ten times as long; a run stays
   clear of that only below 400 misses per connection, 400 000 requests. *)
let miss_offset ~conn k = 0.1 +. (1e-6 *. float_of_int (1 + (connections * k) + conn))

(* Skewed device choice: weight 1 / (k + 1). *)
let zipf =
  let w = Array.init devices (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let pick_device st =
  let u = Random.State.float st 1. in
  let k = ref 0 in
  while !k < devices - 1 && u > zipf.(!k) do incr k done;
  !k

type read = Iv of { device : int; vg : float; vd : float } | Table of int

type kind = Read of read | Miss

(* The seeded request stream of one connection. *)
let stream ~seed ~conn =
  let st = rng ~seed ~salt:(0x5e7 + conn) in
  let next_block () =
    let kinds =
      Array.init block (fun i ->
          if i < misses_per_block then `Miss
          else if i < misses_per_block + tables_per_block then `Table
          else `Iv)
    in
    shuffle st kinds;
    Array.to_seq kinds
    |> Seq.map (function
         | `Miss -> Miss
         | `Table -> Read (Table (pick_device st))
         | `Iv ->
           let device = pick_device st in
           let vg = -0.25 +. Random.State.float st 1.3 in
           let vd = Random.State.float st 0.8 in
           Read (Iv { device; vg; vd }))
    |> List.of_seq
  in
  Seq.concat (Seq.forever (fun () -> List.to_seq (next_block ())))

let render id op = Serve_protocol.request_to_line { Serve_protocol.id = Some id; op }

let read_op = function
  | Iv { device; vg; vd } -> Serve_protocol.Iv { params = device_params device; grid = None; vg; vd }
  | Table device -> Serve_protocol.Table { params = device_params device; grid = None }

let miss_op offset = Serve_protocol.Table { params = micro_params offset; grid = Some micro_grid }

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)

type daemon = { pid : int; dir : string; socket : string }

type conn = { ic : in_channel; oc : out_channel }

(* The fixture written as gnrtbl under each device key, each copy with its
   own table key so the program's per-key interpolant memo sees K tables. *)
let copy_of fixture k =
  let suffix =
    match String.rindex_opt fixture.Iv_table.key '|' with
    | Some i -> String.sub fixture.key i (String.length fixture.key - i)
    | None -> ""
  in
  { fixture with Iv_table.key = Params.cache_key (device_params k) ^ suffix }

let write_fixtures ~dir fixture =
  mkdir_p dir;
  Unix.putenv "GNRFET_TABLE_DIR" dir;
  for k = 0 to devices - 1 do
    let key = Table_cache.key (device_params k) in
    Tbl_format.write ~path:(Table_cache.gnrtbl_path key) ~cache_key:key (copy_of fixture k)
  done

let spawn ~cli ~dir ~obs =
  let socket = Filename.concat dir "s.sock" in
  let keep v =
    not
      (List.exists
         (fun p -> String.length v >= String.length p && String.sub v 0 (String.length p) = p)
         [ "GNRFET_OBS="; "GNRFET_TABLE_DIR=" ])
  in
  let env =
    Array.append
      [| "GNRFET_OBS=" ^ (if obs then "1" else "0"); "GNRFET_TABLE_DIR=" ^ dir |]
      (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
  in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) @@ fun () ->
    Unix.create_process_env cli
      [| cli; "serve"; "--socket"; socket; "--lru"; string_of_int lru |]
      env Unix.stdin log log
  in
  { pid; dir; socket }

let alive d = match Unix.waitpid [ Unix.WNOHANG ] d.pid with 0, _ -> true | _ -> false

let connect d =
  let deadline = now () +. 60. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if now () > deadline || not (alive d) then failwith "serve daemon did not start"
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

let exchange c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close_conn c = close_in_noerr c.ic

(* Ask the daemon to stop and wait for it; kill it if it lingers. *)
let stop d conns =
  (match conns with
  | c :: _ -> ( try ignore (exchange c {|{"id":0,"op":"shutdown"}|}) with _ -> ())
  | [] -> ());
  List.iter close_conn conns;
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ()

(* Daemons still running when the benchmark exits, whatever the path. *)
let live : daemon list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
        !live)

let result_of line =
  match Serve_protocol.parse_response line with
  | Ok { Serve_protocol.result = Ok j; _ } -> Some j
  | Ok { result = Error _; _ } | Error _ -> None

let counters_of_stats line =
  match Option.bind (result_of line) (Sjson.member "counters") with
  | Some (Sjson.Obj fields) ->
    List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Sjson.to_float v)) fields
  | Some _ | None -> failwith "serve: malformed stats response"

(* Start a daemon over fresh fixtures, connect, and pay the micro-device
   geometry set-up with one warm-up miss. *)
let start ~cli ~work ~index ~obs fixture =
  let dir = Filename.concat work (Printf.sprintf "serve-%d" index) in
  write_fixtures ~dir fixture;
  let d = spawn ~cli ~dir ~obs in
  live := d :: !live;
  let conns = List.init connections (fun _ -> connect d) in
  let warm = exchange (List.hd conns) (render 0 (miss_op warm_up_offset)) in
  (d, conns, warm)

let shutdown d conns =
  stop d conns;
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* ------------------------------------------------------------------ *)
(* The client                                                          *)

(* Each connection cycles through a pool of its stream's first [pool]
   requests, rendered before the timed phase: the timed loop only sends,
   receives and reads the clock.  Misses are the exception: each is
   rendered when it comes up, with the connection's next gate offset, so
   it stays a miss however often the pool wraps.  The daemon keeps no
   response cache, so a wrapped iv or table request costs what a fresh
   one does.  The pool covers a traced run without wrapping. *)
let pool = 8 * block

type slot = Ready of read * string | Miss_slot

let pool_of ~seed ~conn =
  Array.of_seq
    (Seq.mapi
       (fun i kind ->
         match kind with Read rd -> Ready (rd, render (i + 1) (read_op rd)) | Miss -> Miss_slot)
       (Seq.take pool (stream ~seed ~conn)))

(* What the loop keeps of each response, checked after the phase: an iv
   response whole, a table response as the digest of its result payload
   ([None] when it has none), a miss response whole. *)
type answer =
  | Iv_line of { device : int; vg : float; vd : float; line : string }
  | Table_digest of int * Digest.t option
  | Miss_line of float * string

type sample = { kind : kind; t0 : float; ms : float }

type client = {
  mutable samples : sample list;
  mutable answers : answer list;
  mutable bytes : int;
  firsts : (int, string) Hashtbl.t;  (** device -> its first table payload, kept whole *)
  mutable lines : string list;  (** first [min_requests] responses *)
  mutable requests : string list;  (** first [min_requests] requests *)
}

let result_marker = {|"result":|}

(* Offset of the result payload in a response line, without allocating.
   The payload runs from there to the line's last character, the brace
   that closes the response object. *)
let payload_start line =
  let n = String.length line and m = String.length result_marker in
  let rec matches i k = k = m || (line.[i + k] = result_marker.[k] && matches i (k + 1)) in
  let rec find i = if i + m > n then None else if matches i 0 then Some (i + m) else find (i + 1) in
  find 0

(* One connection's closed loop: send the next request only after the
   previous response arrived, until [stop] says so. *)
let drive c ~seed ~conn ~stop =
  let slots = pool_of ~seed ~conn in
  let cl =
    {
      samples = [];
      answers = [];
      bytes = 0;
      firsts = Hashtbl.create devices;
      lines = [];
      requests = [];
    }
  in
  let misses = ref 0 in
  let rec go n =
    if not (stop n) then begin
      let slot = slots.(n mod pool) in
      let kind, line, offset =
        match slot with
        | Ready (rd, line) -> (Read rd, line, nan)
        | Miss_slot ->
          let offset = miss_offset ~conn !misses in
          incr misses;
          (Miss, render (n + 1) (miss_op offset), offset)
      in
      let t0 = now () in
      let resp = exchange c line in
      let ms = (now () -. t0) *. 1e3 in
      cl.samples <- { kind; t0; ms } :: cl.samples;
      cl.bytes <- cl.bytes + String.length resp + 1;
      if n < min_requests then begin
        cl.requests <- line :: cl.requests;
        cl.lines <- resp :: cl.lines
      end;
      let answer =
        match kind with
        | Miss -> Miss_line (offset, resp)
        | Read (Iv { device; vg; vd }) -> Iv_line { device; vg; vd; line = resp }
        | Read (Table device) ->
          Table_digest
            ( device,
              Option.map
                (fun at ->
                  let len = String.length resp - at - 1 in
                  if not (Hashtbl.mem cl.firsts device) then
                    Hashtbl.replace cl.firsts device (String.sub resp at len);
                  Digest.substring resp at len)
                (payload_start resp) )
      in
      cl.answers <- answer :: cl.answers;
      go (n + 1)
    end
  in
  go 0;
  cl

(* All connections concurrently; the phase's span and clients. *)
let phase conns ~seed ~stop =
  let results = Array.make connections None in
  let t0 = now () in
  let threads =
    List.mapi
      (fun conn c ->
        Thread.create (fun () -> results.(conn) <- Some (drive c ~seed ~conn ~stop:(stop t0))) ())
      conns
  in
  List.iter Thread.join threads;
  ((t0, now ()), Array.to_list (Array.map (function Some cl -> cl | None -> failwith "serve: client thread died") results))

let samples clients = List.concat_map (fun cl -> cl.samples) clients

let requests clients = List.length (samples clients)

let answers clients = List.concat_map (fun cl -> cl.answers) clients

let misses_of clients =
  List.filter_map (function Miss_line (o, l) -> Some (o, l) | _ -> None) (answers clients)

(* Error and busy responses: an iv or miss line without a result, or a
   table response without a payload. *)
let errors clients =
  List.length
    (List.filter
       (function
         | Iv_line { line = l; _ } | Miss_line (_, l) -> result_of l = None
         | Table_digest (_, d) -> d = None)
       (answers clients))

(* Every miss response equals a direct Iv_table.generate of its device. *)
let check_misses r misses =
  let bad =
    List.filter
      (fun (offset, line) ->
        let expected = Iv_table.generate ~grid:micro_grid (micro_params offset) in
        match Option.map Serve_protocol.table_of_json (result_of line) with
        | Some (Ok t) -> not (same_table t expected)
        | Some (Error _) | None -> true)
      misses
  in
  check r (bad = []) "%d miss responses equal a direct Iv_table.generate (%d differ)"
    (List.length misses) (List.length bad)

(* Every iv response equals Iv_table.current_at/charge_at on the fixture
   and names its copy's key; every table payload is the fixture copy:
   the first one per device and connection is decoded and compared, the
   rest must share its digest. *)
let check_clients r fixture clients =
  let copies = Array.init devices (copy_of fixture) in
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let verified = Hashtbl.create devices in
  List.iter
    (fun cl ->
      Hashtbl.iter
        (fun device payload ->
          match Result.bind (Sjson.parse payload) Serve_protocol.table_of_json with
          | Ok t when same_table t copies.(device) ->
            Hashtbl.replace verified device (Digest.string payload)
          | Ok _ | Error _ -> fail "table response for device %d differs from the fixture" device)
        cl.firsts)
    clients;
  List.iter
    (function
      | Iv_line { device; vg; vd; line } -> (
        match result_of line with
        | None -> ()
        | Some j ->
          let num k = Option.bind (Sjson.member k j) Sjson.to_float in
          let key = Option.bind (Sjson.member "key" j) Sjson.to_str in
          if
            not
              (num "current" = Some (Iv_table.current_at fixture ~vg ~vd)
              && num "charge" = Some (Iv_table.charge_at fixture ~vg ~vd)
              && key = Some copies.(device).key)
          then fail "iv response differs from Iv_table.current_at/charge_at: %s" line)
      | Table_digest (device, Some d) ->
        if Hashtbl.find_opt verified device <> Some d then
          fail "table response for device %d differs from the fixture" device
      | Table_digest (_, None) | Miss_line _ -> ())
    (answers clients);
  let bad = List.rev !bad in
  List.iteri (fun i s -> if i < 5 then line r "mismatch: %s" s) bad;
  let n = requests clients in
  check r (bad = []) "%d iv and table responses equal Iv_table.current_at/charge_at or the fixture (%d differ)"
    (n - List.length (misses_of clients)) (List.length bad);
  check r (errors clients = 0) "%d of %d requests answered with an error or busy" (errors clients) n

let digest_lines clients get =
  Digest.to_hex (Digest.string (String.concat "\n" (List.concat_map (fun cl -> List.rev (get cl)) clients)))

type cls = First_touch | Iv_repeat | Table_repeat | Miss_cls

let cls_name = function
  | First_touch -> "first-touch"
  | Iv_repeat -> "iv"
  | Table_repeat -> "table"
  | Miss_cls -> "miss"

(* Each sample's class, in send order across the connections: the first
   request to each on-disk device is its first touch. *)
let classified clients =
  let touched = Array.make devices false in
  List.map
    (fun s ->
      let cls =
        match s.kind with
        | Miss -> Miss_cls
        | Read (Iv { device; _ } | Table device) when not touched.(device) ->
          touched.(device) <- true;
          First_touch
        | Read (Iv _) -> Iv_repeat
        | Read (Table _) -> Table_repeat
      in
      (cls, s))
    (List.sort (fun a b -> Float.compare a.t0 b.t0) (samples clients))

(* A sample's latency in reference ms. *)
let ref_ms sp s = ref_s sp (s.t0, s.t0 +. (s.ms *. 1e-3)) *. 1e3

let class_latencies sp clients cls =
  Array.of_list
    (List.filter_map (fun (c, s) -> if c = cls then Some (ref_ms sp s) else None) (classified clients))

let run r ~cli ~data ~work ~seed ~seconds ~trace =
  let fixture = Pb_fixture.read_table (Filename.concat data fixture_file) in
  line r "daemon: %d on-disk devices, --lru %d, %d connections; per %d requests: %d table, %d miss, rest iv"
    devices lru connections block tables_per_block misses_per_block;
  let sampler = Pb_speed.start () in
  if not trace then begin
    let started =
      List.init setup_repeats (fun index ->
          let (d, conns, warm), span = clocked (fun () -> start ~cli ~work ~index ~obs:false fixture) in
          if index < setup_repeats - 1 then shutdown d conns;
          (d, conns, warm, span))
    in
    let d, conns, warm, _ = List.nth started (setup_repeats - 1) in
    let span, clients =
      phase conns ~seed ~stop:(fun t0 n -> n >= min_requests && now () -. t0 >= seconds)
    in
    let sp = Pb_speed.stop sampler in
    let rss = peak_rss_mb (string_of_int d.pid) in
    shutdown d conns;
    check_clients r fixture clients;
    check_misses r ((warm_up_offset, warm) :: misses_of clients);
    let n = requests clients in
    r.attempted <- n;
    r.failed <- errors clients;
    line r "operation sequence digest (first %d requests per connection): %s" min_requests
      (digest_lines clients (fun cl -> cl.requests));
    line r "output digest (first %d responses per connection): %s" min_requests
      (digest_lines clients (fun cl -> cl.lines));
    let all = Array.of_list (List.map (ref_ms sp) (samples clients)) in
    let tail = Pb_tail.tail all in
    let top =
      List.filteri
        (fun i _ -> i <= tail.Pb_tail.beyond)
        (List.sort (fun (_, a) (_, b) -> Float.compare b a)
           (List.map (fun (c, s) -> (c, ref_ms sp s)) (classified clients)))
    in
    line r "requests: %d; tail latency: %s; classes at and beyond the tail: %s" n (Pb_tail.describe tail)
      (String.concat ", "
         (List.filter_map
            (fun c ->
              let k = List.length (List.filter (fun (c', _) -> c' = c) top) in
              if k > 0 then Some (Printf.sprintf "%s %d" (cls_name c) k) else None)
            [ Miss_cls; First_touch; Table_repeat; Iv_repeat ]));
    let setups seconds_of = Array.of_list (List.map (fun (_, _, _, span) -> seconds_of span) started) in
    speed_lines r sp
      ~wall:
        (Printf.sprintf "setup_s %.4g, ops_per_s %.4g, p50_ms %.4g"
           (Pb_tail.median (setups wall_s))
           (float_of_int n /. wall_s span)
           (Pb_tail.median (Array.of_list (List.map (fun s -> s.ms) (samples clients)))));
    e2e r "setup_s" (Pb_tail.median (setups (ref_s sp)));
    e2e r "ops_per_s" (float_of_int n /. ref_s sp span);
    e2e r "p50_ms" (Pb_tail.median all);
    e2e r "tail_ms" tail.Pb_tail.value;
    e2e r "ok_frac" (1. -. ratio (float_of_int r.failed) (float_of_int n));
    e2e r "peak_rss_mb" rss
  end
  else begin
    let stop _ n = n >= trace_requests in
    let d, conns, warm_a = start ~cli ~work ~index:0 ~obs:false fixture in
    let span_a, plain = phase conns ~seed ~stop in
    shutdown d conns;
    let d, conns, warm_b = start ~cli ~work ~index:1 ~obs:true fixture in
    let c0 = List.hd conns in
    let before = counters_of_stats (exchange c0 {|{"id":0,"op":"stats"}|}) in
    let w0 = Gc.minor_words () and m0 = major_collections () in
    let span_b, clients = phase conns ~seed ~stop in
    let words = Gc.minor_words () -. w0 and majors = major_collections () - m0 in
    let after = counters_of_stats (exchange c0 {|{"id":0,"op":"stats"}|}) in
    shutdown d conns;
    let sp = Pb_speed.stop sampler in
    check_clients r fixture (plain @ clients);
    check_misses r (((warm_up_offset, warm_a) :: misses_of plain) @ ((warm_up_offset, warm_b) :: misses_of clients));
    r.attempted <- requests plain + requests clients;
    r.failed <- errors plain + errors clients;
    let delta =
      List.map
        (fun (k, v) -> (k, v -. Option.value ~default:0. (List.assoc_opt k before)))
        after
    in
    let n = requests clients in
    let ops = float_of_int n in
    registry_layers r (view_of_counters delta) ~ops;
    let p50 cls = Pb_tail.median (class_latencies sp clients cls) in
    layer r "serve.first_touch_ms" (p50 First_touch);
    layer r "serve.iv_repeat_p50_ms" (p50 Iv_repeat);
    layer r "serve.table_p50_ms" (p50 Table_repeat);
    layer r "serve.miss_p50_ms" (p50 Miss_cls);
    line r "serve.first_touch_ms is the median over the first request to each of the %d devices" devices;
    layer r "serve.response_bytes_per_op"
      (float_of_int (List.fold_left (fun a cl -> a + cl.bytes) 0 clients) /. ops);
    layer r "gc.minor_words_per_op" (words /. ops);
    layer r "gc.major_collections" (float_of_int majors);
    line r "gc.* measure the client process; the daemon's allocation is not exported";
    layer r "trace.ops" ops;
    layer r "trace.overhead_frac"
      (1. -. ((ops /. ref_s sp span_b) /. (float_of_int (requests plain) /. ref_s sp span_a)));
    layer r "machine.kernel_ms" (Pb_speed.kernel_ms sp);
    line r "machine speed: %s" (Pb_speed.describe sp);
    line r
      "device-layer *_ms, setup.geometry_ms and trace.unattributed_frac read 0: the daemon's stats \
       op exports counters, not timers";
    complete_layers r ~why:"not measured in this workload"
  end
