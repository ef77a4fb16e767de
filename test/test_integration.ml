(* End-to-end integration tests across layers: datalog text → parsed
   query → generated or CSV-round-tripped data → sensitivity analysis →
   truncation → DP release; plus whole-pipeline determinism. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_dp
open Tsens_workload

(* ------------------------------------------------------------------ *)
(* Parsed query + generated TPC-H data, all the way to a DP release. *)

let test_parsed_query_pipeline () =
  let cq =
    Parser.parse
      "Trips(*) :- Region(RK), Nation(RK,NK), Customer(NK,CK), \
       Orders(CK,OK), Lineitem(OK,SK,PK)."
  in
  Alcotest.(check bool) "parses to q1's structure" true
    (Classify.path_order cq <> None);
  let db = Tpch.generate ~scale:0.0005 () in
  let analysis = Tsens.analyze cq db in
  let result = Tsens.result analysis in
  Alcotest.(check bool) "LS positive" true
    (result.Sens_types.local_sensitivity > 0);
  (* The same query through Algorithm 1 and the elastic bound. *)
  let path = Path_sens.local_sensitivity cq db in
  Alcotest.(check int)
    "path agrees" result.Sens_types.local_sensitivity
    path.Sens_types.local_sensitivity;
  let elastic = Elastic.local_sensitivity cq db in
  Alcotest.(check bool) "elastic dominates" true
    (elastic.Sens_types.local_sensitivity
    >= result.Sens_types.local_sensitivity);
  (* DP release with a generous budget is accurate. *)
  let config =
    {
      (Mechanism.default_config ~ell:200 ~private_relation:"Customer") with
      Mechanism.epsilon = 1e6;
    }
  in
  let report = Mechanism.run_with_analysis (Prng.create 3) config analysis in
  Alcotest.(check bool) "release near truth" true
    (Report.relative_error report < 0.01)

(* ------------------------------------------------------------------ *)
(* CSV round trip of a whole instance preserves every analysis output. *)

let test_csv_instance_round_trip () =
  let cq = Queries.q2 in
  let db = Tpch.generate ~scale:0.0005 () in
  let dir = Filename.temp_file "tsens_it" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let db' =
        List.fold_left
          (fun acc name ->
            let path = Filename.concat dir (name ^ ".csv") in
            Csv.write_file path (Database.find name db);
            Database.add ~name (Csv.read_file path) acc)
          Database.empty (Cq.relation_names cq)
      in
      let before = Tsens.local_sensitivity cq db in
      let after = Tsens.local_sensitivity cq db' in
      Alcotest.(check (list (pair string int)))
        "identical sensitivities" before.Sens_types.per_relation
        after.Sens_types.per_relation;
      Alcotest.(check int)
        "identical counts"
        (Yannakakis.count cq db)
        (Yannakakis.count cq db'))

(* ------------------------------------------------------------------ *)
(* Full determinism: generation, analysis, and DP are seed-stable. *)

let test_whole_pipeline_deterministic () =
  let run () =
    let db = Tpch.generate ~seed:9 ~scale:0.0005 () in
    let analysis = Tsens.analyze ~plans:Queries.tpch_plans Queries.q1 db in
    let config =
      Mechanism.default_config ~ell:150 ~private_relation:"Customer"
    in
    let report = Mechanism.run_with_analysis (Prng.create 5) config analysis in
    ( (Tsens.result analysis).Sens_types.per_relation,
      report.Report.noisy_answer )
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check (pair (list (pair string int)) (float 0.0)))
    "bit-identical replays" r1 r2

(* ------------------------------------------------------------------ *)
(* Pinned answers on one TPC-H instance: LS, the witness, per-relation
   maxima and the five most sensitive tuples of every relation, for the
   acyclic q1 and the cyclic q3. Ties among equal counts are broken by
   tuple order, so a tie-break that followed storage order would move
   these literals. *)

let pinned =
  [
    ( "q1", Queries.q1, 724, ("Region", "(2)"),
      [ ("Region", 724); ("Nation", 276); ("Customer", 89); ("Orders", 8);
        ("Lineitem", 1) ],
      [
        ("Region", [ "(2)=724"; "(4)=675"; "(0)=673"; "(1)=502"; "(3)=426" ]);
        ( "Nation",
          [ "(0, 14)=276"; "(1, 14)=276"; "(2, 14)=276"; "(3, 14)=276";
            "(4, 14)=276" ] );
        ( "Customer",
          [ "(0, 44)=89"; "(1, 44)=89"; "(2, 44)=89"; "(3, 44)=89";
            "(4, 44)=89" ] );
        ( "Orders",
          [ "(0, 37)=8"; "(0, 167)=8"; "(0, 177)=8"; "(0, 344)=8";
            "(0, 352)=8" ] );
        ( "Lineitem",
          [ "(0, 0, 0)=1"; "(1, 0, 0)=1"; "(2, 0, 0)=1"; "(3, 0, 0)=1";
            "(4, 0, 0)=1" ] );
      ] );
    ( "q3", Queries.q3, 102, ("Supplier", "(14, 4)"),
      [ ("Nation", 55); ("Supplier", 102); ("Partsupp", 3); ("Part", 10);
        ("Region", 100); ("Customer", 47); ("Orders", 12); ("Lineitem", 3) ],
      [
        ( "Nation",
          [ "(0, 19)=55"; "(1, 19)=55"; "(2, 19)=55"; "(3, 19)=55";
            "(4, 19)=55" ] );
        ( "Supplier",
          [ "(14, 4)=102"; "(14, 1)=99"; "(14, 2)=88"; "(14, 3)=82";
            "(20, 1)=80" ] );
        ( "Partsupp",
          [ "(0, 59)=3"; "(4, 24)=3"; "(4, 56)=3"; "(0, 16)=2"; "(0, 25)=2" ] );
        ("Part", [ "(24)=10"; "(59)=10"; "(56)=8"; "(15)=6"; "(16)=6" ]);
        ("Region", [ "(0)=100"; "(4)=55"; "(2)=41"; "(1)=39" ]);
        ( "Customer",
          [ "(22, 39)=47"; "(0, 44)=39"; "(0, 37)=33"; "(22, 1)=33";
            "(0, 15)=31" ] );
        ( "Orders",
          [ "(8, 246)=12"; "(23, 344)=12"; "(30, 246)=12"; "(55, 344)=12";
            "(58, 246)=12" ] );
        ( "Lineitem",
          [ "(10, 0, 94)=3"; "(10, 0, 97)=3"; "(12, 0, 94)=3"; "(12, 0, 97)=3";
            "(14, 4, 24)=3" ] );
      ] );
  ]

let test_pinned_answers () =
  let db = Tpch.generate ~seed:42 ~scale:0.0005 () in
  let show_tuple = Format.asprintf "%a" Tuple.pp in
  List.iter
    (fun (name, cq, ls, (wrel, wtuple), per_relation, tops) ->
      let a = Tsens.analyze ~plans:Queries.tpch_plans cq db in
      let r = Tsens.result a in
      Alcotest.(check int) (name ^ " LS") ls r.Sens_types.local_sensitivity;
      Alcotest.(check (option (pair string string)))
        (name ^ " witness")
        (Some (wrel, wtuple))
        (Option.map
           (fun w -> (w.Sens_types.relation, show_tuple w.Sens_types.tuple))
           r.Sens_types.witness);
      Alcotest.(check (list (pair string int)))
        (name ^ " per-relation maxima")
        per_relation r.Sens_types.per_relation;
      List.iter
        (fun (relation, expected) ->
          Alcotest.(check (list string))
            (name ^ " top " ^ relation)
            expected
            (List.map
               (fun (t, c) -> Printf.sprintf "%s=%d" (show_tuple t) c)
               (Tsens.top_sensitive a relation 5)))
        tops)
    pinned

(* ------------------------------------------------------------------ *)
(* The Facebook pipeline: generator → per-query databases → sensitivity
   consistency between the two cyclic decompositions and the oracle. *)

let test_facebook_pipeline () =
  let data =
    Facebook.generate { Facebook.nodes = 30; edges = 90; circles = 25; seed = 1 }
  in
  let db = Queries.facebook_database data Queries.q4 in
  let with_plan =
    Tsens.local_sensitivity ~plans:[ Queries.q4_ghd ] Queries.q4 db
  in
  let auto = Tsens.local_sensitivity Queries.q4 db in
  Alcotest.(check (list (pair string int)))
    "plans agree" with_plan.Sens_types.per_relation
    auto.Sens_types.per_relation;
  (* The DP setups drive the same queries. *)
  let setup = List.assoc "q4" Queries.dp_setups in
  let analysis = Tsens.analyze ~plans:[ Queries.q4_ghd ] setup.Queries.query db in
  let profile = Truncation.profile analysis setup.Queries.private_relation in
  Alcotest.(check int)
    "untruncated answer is |Q(D)|" (Tsens.output_size analysis)
    (Truncation.truncated_answer profile
       (Truncation.max_tuple_sensitivity profile))

(* ------------------------------------------------------------------ *)
(* Selection + DP: a selection lowers the output and the analysis stays
   internally consistent (truncation sums match a direct recount). *)

let test_selection_pipeline () =
  let cq = Parser.parse "Q(*) :- R1(A,B), R2(B,C)." in
  let v = Value.int in
  let db =
    Database.of_list
      [
        ( "R1",
          Relation.of_rows
            ~schema:(Schema.of_list [ "A"; "B" ])
            [ [ v 0; v 0 ]; [ v 1; v 0 ]; [ v 2; v 1 ] ] );
        ( "R2",
          Relation.of_rows
            ~schema:(Schema.of_list [ "B"; "C" ])
            [ [ v 0; v 5 ]; [ v 0; v 6 ]; [ v 1; v 7 ] ] );
      ]
  in
  (* Keep only even A values in R1. *)
  let selection relation schema t =
    (not (String.equal relation "R1"))
    ||
    match Value.as_int (Tuple.get t (Schema.index "A" schema)) with
    | Some a -> a mod 2 = 0
    | None -> true
  in
  let analysis = Tsens.analyze ~selection cq db in
  (* Rows (0,0) and (2,1) survive: outputs 2 + 1. *)
  Alcotest.(check int) "filtered output" 3 (Tsens.output_size analysis);
  let profile = Truncation.profile analysis "R1" in
  Alcotest.(check int) "profile covers filtered instance" 3
    (Truncation.truncated_answer profile 100);
  Alcotest.(check int) "filtered tuple contributes nothing" 0
    (Tsens.tuple_sensitivity analysis "R1" (Tuple.of_list [ v 1; v 0 ]))

(* ------------------------------------------------------------------ *)
(* The SAT reduction through the public pipeline: the witness of a
   satisfiable reduction is a satisfying assignment, found by the same
   Tsens entry point used everywhere else. *)

let test_sat_pipeline () =
  let rng = Prng.create 77 in
  let checked = ref 0 in
  for _ = 1 to 10 do
    let f = Sat_reduction.random_formula rng ~vars:4 ~clauses:5 in
    let cq, db = Sat_reduction.to_instance f in
    let result = Tsens.local_sensitivity cq db in
    let sat = Sat_reduction.brute_force_sat f in
    Alcotest.(check bool) "LS>0 iff SAT" sat
      (result.Sens_types.local_sensitivity > 0);
    match result.Sens_types.witness with
    | Some w when sat ->
        incr checked;
        Alcotest.(check bool) "witness satisfies" true
          (Sat_reduction.assignment_of_witness f w <> None)
    | _ -> ()
  done;
  Alcotest.(check bool) "exercised some satisfiable formulas" true
    (!checked > 0)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "parsed query to DP release" `Quick
            test_parsed_query_pipeline;
          Alcotest.test_case "csv instance round trip" `Quick
            test_csv_instance_round_trip;
          Alcotest.test_case "whole pipeline deterministic" `Quick
            test_whole_pipeline_deterministic;
          Alcotest.test_case "facebook pipeline" `Quick test_facebook_pipeline;
          Alcotest.test_case "selection pipeline" `Quick
            test_selection_pipeline;
          Alcotest.test_case "sat pipeline" `Quick test_sat_pipeline;
          Alcotest.test_case "pinned answers" `Quick test_pinned_answers;
        ] );
    ]
