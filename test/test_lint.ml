(* gnrlint rule harness: runs the analysis engine in-process over the
   fixture corpus in test/lint_fixtures/ (deliberate violations, parsed
   by the linter but never compiled) and asserts exact diagnostics per
   rule family, plus SARIF/JSON emitter shape and the versioned-baseline
   staleness classification.

   The fixture dir is excluded from Engine.default_config, so the repo
   lint alias and `gnrfet_cli lint` never count these violations; the
   tests here opt back in with an empty exclude list. *)

module E = Gnrlint_lib.Engine
module D = Gnrlint_lib.Diag
module B = Gnrlint_lib.Baseline
module R = Gnrlint_lib.Report

let fixture_config =
  { E.default_config with E.dirs = [ "lint_fixtures" ]; exclude = [] }

(* One analysis, shared by all tests (the engine is pure per call). *)
let diags = lazy (E.analyze fixture_config)

let by_rule rule =
  List.filter (fun d -> d.D.d_rule = rule) (Lazy.force diags)

let locs ds = List.map (fun d -> (d.D.d_file, d.D.d_line)) ds

let check_locs msg rule expected =
  Alcotest.(check (list (pair string int))) msg expected (locs (by_rule rule))

(* Line numbers below are anchored to the fixture sources; a fixture
   edit that moves a case must update them. *)

let test_domain_race () =
  check_locs "domain-race sites" "domain-race"
    [ ("lint_fixtures/race_driver.ml", 10); ("lint_fixtures/race_driver.ml", 15) ]

let test_domain_race_cross_module () =
  (* Acceptance: the race reported at the Parallel.map_reduce call in
     race_driver.ml is caused by a write inside race_helper.ml — a
     cross-module finding the old per-file domain-capture rule could
     not produce (it only saw captures within one file). *)
  match by_rule "domain-race" with
  | [] -> Alcotest.fail "no domain-race finding"
  | d :: _ ->
    Alcotest.(check string) "reported at the parallel call site"
      "lint_fixtures/race_driver.ml" d.D.d_file;
    let mentions needle =
      let msg = d.D.d_msg in
      let nh = String.length msg and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub msg i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the cross-module cell" true
      (mentions "Race_helper.counts");
    Alcotest.(check bool) "points into race_helper.ml" true
      (mentions "lint_fixtures/race_helper.ml")

let test_nondet_path () =
  check_locs "nondet-path sites" "nondet-path"
    [ ("lint_fixtures/nondet_core.ml", 7); ("lint_fixtures/nondet_core.ml", 13) ]

let test_lock_safety () =
  check_locs "lock-safety sites" "lock-safety"
    [ ("lint_fixtures/lock_fixture.ml", 7); ("lint_fixtures/lock_fixture.ml", 13) ]

let test_span_balance () =
  check_locs "span-balance sites" "span-balance"
    [ ("lint_fixtures/span_fixture.ml", 8) ]

let test_float_eq () =
  check_locs "float-eq sites" "float-eq" [ ("lint_fixtures/float_fixture.ml", 5) ]

let test_rendered_form () =
  match by_rule "float-eq" with
  | [ d ] ->
    let s = D.to_string d in
    let prefix = "lint_fixtures/float_fixture.ml:5:" in
    Alcotest.(check string) "rendered prefix" prefix
      (String.sub s 0 (String.length prefix));
    Alcotest.(check bool) "carries the versioned rule tag" true
      (let nh = String.length s in
       let needle = "[float-eq@v1]" in
       let nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
       go 0)
  | ds -> Alcotest.failf "expected exactly one float-eq finding, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Emitters *)

let member k j = match Sjson.member k j with Some v -> v | None -> Alcotest.failf "missing JSON field %s" k
let str j = match Sjson.to_str j with Some s -> s | None -> Alcotest.fail "expected string"
let arr j = match j with Sjson.List l -> l | _ -> Alcotest.fail "expected array"

let test_sarif_shape () =
  let check = B.check [] (Lazy.force diags) in
  let text = R.sarif_report check in
  match Sjson.parse text with
  | Error e -> Alcotest.failf "SARIF did not parse as JSON: %s" e
  | Ok j ->
    Alcotest.(check string) "version" "2.1.0" (str (member "version" j));
    Alcotest.(check bool) "$schema names sarif-schema-2.1.0" true
      (let s = str (member "$schema" j) in
       Filename.basename s = "sarif-schema-2.1.0.json");
    (match arr (member "runs" j) with
    | [ run ] ->
      let driver = member "driver" (member "tool" run) in
      Alcotest.(check string) "driver name" "gnrlint" (str (member "name" driver));
      let rules = arr (member "rules" driver) in
      Alcotest.(check int) "one SARIF rule per registry entry"
        (List.length D.rules) (List.length rules);
      List.iter
        (fun r ->
          ignore (str (member "id" r));
          ignore (str (member "text" (member "shortDescription" r)));
          ignore (str (member "text" (member "fullDescription" r)));
          ignore (str (member "level" (member "defaultConfiguration" r))))
        rules;
      let results = arr (member "results" run) in
      Alcotest.(check int) "one result per finding"
        (List.length (Lazy.force diags))
        (List.length results);
      List.iter
        (fun res ->
          let rule_id = str (member "ruleId" res) in
          Alcotest.(check bool) ("registered rule " ^ rule_id) true
            (D.find_rule rule_id <> None);
          ignore (str (member "text" (member "message" res)));
          Alcotest.(check string) "baselineState" "new" (str (member "baselineState" res));
          match arr (member "locations" res) with
          | [ loc ] ->
            let region = member "region" (member "physicalLocation" loc) in
            (match Sjson.to_int (member "startLine" region) with
            | Some l when l >= 1 -> ()
            | _ -> Alcotest.fail "startLine must be a positive int");
            (match Sjson.to_int (member "startColumn" region) with
            | Some c when c >= 1 -> ()
            | _ -> Alcotest.fail "startColumn must be a positive int (1-based)")
          | _ -> Alcotest.fail "expected exactly one location")
        results
    | _ -> Alcotest.fail "expected exactly one run")

let test_json_shape () =
  let check = B.check [] (Lazy.force diags) in
  match Sjson.parse (R.json_report check) with
  | Error e -> Alcotest.failf "JSON report did not parse: %s" e
  | Ok j ->
    Alcotest.(check string) "schema tag" "gnrfet-lint-v2" (str (member "schema" j));
    Alcotest.(check int) "findings count"
      (List.length (Lazy.force diags))
      (List.length (arr (member "findings" j)));
    List.iter
      (fun f ->
        (match Sjson.to_int (member "ruleVersion" f) with
        | Some v when v >= 1 -> ()
        | _ -> Alcotest.fail "ruleVersion must be >= 1");
        ignore (str (member "severity" f)))
      (arr (member "findings" j))

(* ------------------------------------------------------------------ *)
(* Versioned baseline *)

let test_baseline_versioning () =
  let ds = Lazy.force diags in
  let d = List.hd (by_rule "float-eq") in
  let current = D.to_string d in
  (* Same file/pos/rule but recorded under a different rule version: the
     rule was tightened since the entry was accepted. *)
  let bumped =
    (* rewrite the "@v1]" tag to a version that no longer exists *)
    let needle = "@v1]" in
    let nn = String.length needle in
    let rec find i =
      if i + nn > String.length current then Alcotest.fail "no version tag in rendering"
      else if String.sub current i nn = needle then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub current 0 i ^ "@v999]"
    ^ String.sub current (i + nn) (String.length current - i - nn)
  in
  let gone = "lint_fixtures/float_fixture.ml:999:0: [float-eq@v1] no such finding" in
  let path = Filename.temp_file "gnrlint_baseline" ".txt" in
  Fun.protect ~finally:(fun () ->
      match Sys.remove path with () | (exception Sys_error _) -> ())
  @@ fun () ->
  let oc = open_out path in
  output_string oc (String.concat "\n" [ "# comment"; current; bumped; gone; "" ]);
  close_out oc;
  let check = B.check (B.load path) ds in
  Alcotest.(check (list string)) "exact match accepted" [ current ]
    (List.map D.to_string check.B.accepted);
  Alcotest.(check (list string)) "version bump flagged as version-stale" [ bumped ]
    check.B.version_stale;
  Alcotest.(check (list string)) "fixed finding flagged as stale" [ gone ] check.B.stale;
  Alcotest.(check int) "everything else is fresh"
    (List.length ds - 1)
    (List.length check.B.fresh)

let test_update_baseline_roundtrip () =
  let ds = Lazy.force diags in
  let path = Filename.temp_file "gnrlint_baseline" ".txt" in
  Fun.protect ~finally:(fun () ->
      match Sys.remove path with () | (exception Sys_error _) -> ())
  @@ fun () ->
  B.write path ds;
  let check = B.check (B.load path) ds in
  Alcotest.(check int) "round-trip accepts everything" (List.length ds)
    (List.length check.B.accepted);
  Alcotest.(check int) "nothing fresh" 0 (List.length check.B.fresh);
  Alcotest.(check int) "nothing stale" 0
    (List.length check.B.stale + List.length check.B.version_stale)

let test_repo_self_lint () =
  (* The default exclude list keeps the fixture corpus out of a normal
     run: analyzing test/ with defaults must produce no fixture-path
     diagnostics. *)
  let ds = E.analyze { E.default_config with E.dirs = [ "." ] } in
  List.iter
    (fun d ->
      if Gnrlint_lib.Src.in_dir "lint_fixtures" d.D.d_file then
        Alcotest.failf "fixture diagnostic leaked into a default run: %s" (D.to_string d))
    ds

let suite =
  [
    Alcotest.test_case "domain-race: exact fixture sites" `Quick test_domain_race;
    Alcotest.test_case "domain-race: cross-module acceptance" `Quick
      test_domain_race_cross_module;
    Alcotest.test_case "nondet-path: exact fixture sites" `Quick test_nondet_path;
    Alcotest.test_case "lock-safety: exact fixture sites" `Quick test_lock_safety;
    Alcotest.test_case "span-balance: exact fixture sites" `Quick test_span_balance;
    Alcotest.test_case "float-eq: exact fixture sites" `Quick test_float_eq;
    Alcotest.test_case "diagnostic rendering carries rule version" `Quick
      test_rendered_form;
    Alcotest.test_case "SARIF 2.1.0 structure" `Quick test_sarif_shape;
    Alcotest.test_case "JSON report structure" `Quick test_json_shape;
    Alcotest.test_case "versioned baseline classification" `Quick
      test_baseline_versioning;
    Alcotest.test_case "baseline write/check round-trip" `Quick
      test_update_baseline_roundtrip;
    Alcotest.test_case "fixtures excluded from default runs" `Quick test_repo_self_lint;
  ]
