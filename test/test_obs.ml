(* Tests for the observability sink: span nesting and aggregation,
   counter/gauge totals, the disabled path, and the JSON rendering. *)

let with_sink f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let find_span report path =
  List.find_opt
    (fun s -> String.equal s.Obs.Report.path path)
    report.Obs.Report.spans

let find_total totals name =
  List.find_opt (fun t -> String.equal t.Obs.Report.name name) totals

let test_span_nesting () =
  let report =
    with_sink (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () -> ());
            Obs.span "inner" (fun () -> ()));
        Obs.span "outer" (fun () -> ());
        Obs.Report.capture ())
  in
  let outer = Option.get (find_span report "outer") in
  Alcotest.(check int) "outer calls" 2 outer.Obs.Report.calls;
  let inner = Option.get (find_span report "outer/inner") in
  Alcotest.(check int) "inner calls aggregate under the path" 2
    inner.Obs.Report.calls;
  Alcotest.(check bool) "no top-level inner" true
    (find_span report "inner" = None);
  Alcotest.(check bool) "total covers children" true
    (outer.Obs.Report.seconds >= inner.Obs.Report.seconds);
  Alcotest.(check bool) "self <= total" true
    (outer.Obs.Report.self_seconds <= outer.Obs.Report.seconds
    && outer.Obs.Report.self_seconds >= 0.0)

let test_span_passes_value_and_exceptions () =
  with_sink (fun () ->
      Alcotest.(check int) "returns the closure's value" 41
        (Obs.span "v" (fun () -> 41));
      Alcotest.check_raises "re-raises" Exit (fun () ->
          Obs.span "raiser" (fun () -> raise Exit));
      (* The raising span still gets recorded, and the stack unwound. *)
      let report = Obs.Report.capture () in
      let raiser = Option.get (find_span report "raiser") in
      Alcotest.(check int) "raising span recorded" 1 raiser.Obs.Report.calls;
      Alcotest.(check bool) "not nested under raiser" true
        (find_span report "raiser/v" = None))

let test_counter_totals () =
  let c = Obs.counter "test.rows" in
  let report =
    with_sink (fun () ->
        Obs.add c 3;
        Obs.tick c;
        Obs.count "test.rows" 6;
        Obs.count "test.other" 2;
        Obs.Report.capture ())
  in
  let rows = Option.get (find_total report.Obs.Report.counters "test.rows") in
  Alcotest.(check int) "handle and name share the total" 10
    rows.Obs.Report.total;
  let other = Option.get (find_total report.Obs.Report.counters "test.other") in
  Alcotest.(check int) "independent counter" 2 other.Obs.Report.total

let test_gauge_keeps_max () =
  let g = Obs.gauge "test.peak" in
  let report =
    with_sink (fun () ->
        Obs.observe g 4;
        Obs.observe g 9;
        Obs.observe g 2;
        Obs.Report.capture ())
  in
  let peak = Option.get (find_total report.Obs.Report.gauges "test.peak") in
  Alcotest.(check int) "high-water mark" 9 peak.Obs.Report.total

let test_disabled_records_nothing () =
  Obs.reset ();
  let c = Obs.counter "test.disabled" in
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  Obs.add c 5;
  Obs.span "test.disabled_span" (fun () -> ());
  let report = Obs.Report.capture () in
  Alcotest.(check bool) "no counters" true
    (find_total report.Obs.Report.counters "test.disabled" = None);
  Alcotest.(check bool) "no spans" true
    (find_span report "test.disabled_span" = None)

let test_reset_clears_but_keeps_handles () =
  let c = Obs.counter "test.reset" in
  Obs.reset ();
  Obs.enable ();
  Obs.add c 7;
  Obs.reset ();
  Obs.add c 2;
  Obs.disable ();
  let report = Obs.Report.capture () in
  let t = Option.get (find_total report.Obs.Report.counters "test.reset") in
  Alcotest.(check int) "handle survives reset with a fresh total" 2
    t.Obs.Report.total;
  Obs.reset ()

(* A group sum can saturate although every input count is finite: the
   group-by must still report it. *)
let test_project_saturation_counted () =
  let open Tsens_relational in
  let r =
    Relation.create
      ~schema:(Schema.of_attrs [ "A"; "B" ])
      [
        (Tuple.of_list [ Value.Int 1; Value.Int 1 ], Count.max_count - 1);
        (Tuple.of_list [ Value.Int 1; Value.Int 2 ], 5);
      ]
  in
  let projected, report =
    with_sink (fun () ->
        let p = Relation.project (Schema.of_attrs [ "A" ]) r in
        (p, Obs.Report.capture ()))
  in
  Alcotest.(check bool) "group sum saturated" true
    (Count.is_saturated (Relation.count_of (Tuple.of_list [ Value.Int 1 ]) projected));
  let sat = find_total report.Obs.Report.counters "count.saturations" in
  Alcotest.(check int) "saturation counted" 1
    (match sat with Some t -> t.Obs.Report.total | None -> 0)

let saturations report =
  match find_total report.Obs.Report.counters "count.saturations" with
  | Some t -> t.Obs.Report.total
  | None -> 0

(* Two finite counts whose sum passes max_int: the bag cardinality
   saturates, whether it is summed over rows, over an undecoded
   encoding, or asked for as the mf over no attributes. *)
let test_cardinality_saturation_counted () =
  let open Tsens_relational in
  let r =
    Relation.create
      ~schema:(Schema.of_attrs [ "A" ])
      [
        (Tuple.of_list [ Value.Int 1 ], Count.max_count - 1);
        (Tuple.of_list [ Value.Int 2 ], 5);
      ]
  in
  let encoded = Relation.of_encoded (Relation.encoded r) in
  List.iter
    (fun (what, f) ->
      let total, report =
        with_sink (fun () ->
            let c = f () in
            (c, Obs.Report.capture ()))
      in
      Alcotest.(check bool) (what ^ " saturated") true (Count.is_saturated total);
      Alcotest.(check int) (what ^ " counted once") 1 (saturations report))
    [
      ("rows", fun () -> Relation.cardinality r);
      ("encoding", fun () -> Relation.cardinality encoded);
      ("mf over nothing", fun () -> Relation.max_frequency ~over:Schema.empty r);
    ]

(* Kernel results stay encoded: counting and analyzing decode no row.
   The first tuple-sensitivity probe of a dense table decodes that table
   once, and nothing else. *)
let test_rows_decoded_counted () =
  let open Tsens_relational in
  let open Tsens_sensitivity in
  let open Tsens_workload in
  let decoded report =
    match find_total report.Obs.Report.counters "relation.rows_decoded" with
    | Some t -> t.Obs.Report.total
    | None -> 0
  in
  let db = Tpch.generate ~seed:42 ~scale:0.0005 () in
  let plans = Queries.tpch_plans and cq = Queries.q3 in
  let analysis, report =
    with_sink (fun () ->
        ignore (Yannakakis.count ~plans cq db);
        let a = Tsens.analyze ~plans cq db in
        (a, Obs.Report.capture ()))
  in
  Alcotest.(check int) "count and analyze decode nothing" 0 (decoded report);
  let dense =
    List.find
      (fun t -> not t.Tsens.factored)
      (snd (Tsens.statistics analysis))
  in
  Alcotest.(check bool) "the dense table has rows" true
    (dense.Tsens.table_rows > 0);
  let relation = dense.Tsens.table_relation in
  let tuple =
    fst (Relation.rows (Tsens.instance_relation analysis relation)).(0)
  in
  let report =
    with_sink (fun () ->
        ignore (Tsens.tuple_sensitivity analysis relation tuple);
        ignore (Tsens.tuple_sensitivity analysis relation tuple);
        Obs.Report.capture ())
  in
  Alcotest.(check int) "one probe decodes the dense table once"
    dense.Tsens.table_rows (decoded report)

(* Every span is recorded under its caller, including the joins that
   build the dense multiplicity tables: [tsens.tables] must not report
   its children's time as self time. Four atoms sharing A give dense
   tables, each built by one [join_project_all]. *)
let test_tables_spans_recorded () =
  let open Tsens_relational in
  let open Tsens_query in
  let atoms = [ ("R", "B"); ("S", "C"); ("T", "D"); ("U", "E") ] in
  let cq =
    Cq.make ~name:"qobs" (List.map (fun (r, x) -> (r, [ "A"; x ])) atoms)
  in
  let db =
    Database.of_list
      (List.map
         (fun (r, x) ->
           ( r,
             Relation.of_rows
               ~schema:(Schema.of_list [ "A"; x ])
               (List.map
                  (fun (a, b) -> [ Value.Int a; Value.Int b ])
                  [ (1, 1); (1, 2); (2, 1) ]) ))
         atoms)
  in
  let analysis, report =
    with_sink (fun () ->
        let a = Tsens_sensitivity.Tsens.analyze cq db in
        (a, Obs.Report.capture ()))
  in
  let dense =
    snd (Tsens_sensitivity.Tsens.statistics analysis)
    |> List.filter (fun t -> not t.Tsens_sensitivity.Tsens.factored)
    |> List.length
  in
  Alcotest.(check bool) "some dense tables" true (dense >= 2);
  let path = "tsens.analyze/tsens.tables/join.project_all" in
  let calls =
    match find_span report path with Some s -> s.Obs.Report.calls | None -> 0
  in
  Alcotest.(check int) "one recorded join per dense table" dense calls

(* The sink feeds dashboards and BENCH_obs.json; keep the rendering
   stable without parsing: shape-check the JSON by substring. *)
let test_json_shape () =
  let json =
    with_sink (fun () ->
        Obs.span "a" (fun () -> Obs.count "test.c\"quoted\"" 1);
        Obs.Report.to_json (Obs.Report.capture ()))
  in
  let contains sub =
    let n = String.length json and m = String.length sub in
    let rec loop i =
      i + m <= n && (String.equal (String.sub json i m) sub || loop (i + 1))
    in
    loop 0
  in
  Alcotest.(check bool) "spans array" true (contains "\"spans\":[");
  Alcotest.(check bool) "span fields" true (contains "{\"path\":\"a\",\"calls\":1");
  Alcotest.(check bool) "counters array" true (contains "\"counters\":[");
  Alcotest.(check bool) "escaped quote" true
    (contains "\"test.c\\\"quoted\\\"\"");
  Alcotest.(check bool) "gauges array" true (contains "\"gauges\":[")

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting aggregates by path" `Quick
            test_span_nesting;
          Alcotest.test_case "values and exceptions" `Quick
            test_span_passes_value_and_exceptions;
          Alcotest.test_case "tsens tables records its joins" `Quick
            test_tables_spans_recorded;
        ] );
      ( "counters",
        [
          Alcotest.test_case "totals" `Quick test_counter_totals;
          Alcotest.test_case "gauge keeps max" `Quick test_gauge_keeps_max;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "reset keeps handles" `Quick
            test_reset_clears_but_keeps_handles;
          Alcotest.test_case "project saturation counted" `Quick
            test_project_saturation_counted;
          Alcotest.test_case "cardinality saturation counted" `Quick
            test_cardinality_saturation_counted;
          Alcotest.test_case "rows decoded counted" `Quick
            test_rows_decoded_counted;
        ] );
      ( "report",
        [ Alcotest.test_case "json shape" `Quick test_json_shape ] );
    ]
