(* A fixture file is one JSON object: {"provenance": [<line>, ...]}
   plus either "table" (Serve_protocol.table_to_json) or "points" (one
   {"vdd", "vt", "frequency", "edp", "snm"} object per point). *)

let write ~path ~provenance field value =
  let json =
    Sjson.Obj
      [ ("provenance", Sjson.List (List.map (fun l -> Sjson.Str l) provenance)); (field, value) ]
  in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (Sjson.to_string json);
      output_char oc '\n');
  Sys.rename tmp path

let read path field =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Sjson.parse text with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok json -> (
    match Sjson.member field json with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: no %S field" path field))

let write_table ~path ~provenance t =
  write ~path ~provenance "table" (Serve_protocol.table_to_json t)

let read_table path =
  match Serve_protocol.table_of_json (read path "table") with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let point_fields (p : Explore.point) =
  [ ("vdd", p.vdd); ("vt", p.vt); ("frequency", p.frequency); ("edp", p.edp); ("snm", p.snm) ]

let write_points ~path ~provenance points =
  write ~path ~provenance "points"
    (Sjson.List
       (List.map
          (fun p -> Sjson.Obj (List.map (fun (k, v) -> (k, Sjson.Num v)) (point_fields p)))
          points))

let read_points path =
  let num j k =
    match Option.bind (Sjson.member k j) Sjson.to_float with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: point without a number %S" path k)
  in
  match Sjson.to_list (read path "points") with
  | None -> failwith (path ^ ": \"points\" is not a list")
  | Some items ->
    List.map
      (fun j ->
        {
          Explore.vdd = num j "vdd";
          vt = num j "vt";
          frequency = num j "frequency";
          edp = num j "edp";
          snm = num j "snm";
        })
      items
