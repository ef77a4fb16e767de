(* The end-to-end benchmark's workload runner, started by run.py.

   The worker loads a generated data set from CSV several times (the
   set-up), then runs rounds of the workload's pipelines through the
   libraries' public entry points at the program's defaults until its
   time is up. It checks every answer and prints one JSON line per round
   with the round's timings; run.py takes the medians. With --trace 1 it
   also enables Obs around the rounds and folds each round's captured
   report into per-layer numbers.

   Usage:
     worker.exe run --workload W --data DIR --seed N --trace 0|1
                    --seconds S --loads N
     worker.exe selftest --data DIR
       (the answer checks reject perturbed answers) *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_dp
open Tsens_workload

(* ------------------------------------------------------------------ *)
(* Minimal JSON output *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_json = function
  | Int n -> string_of_int n
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat "," (List.map to_json l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_json v) kvs)
      ^ "}"

let emit j = print_endline (to_json j)

(* ------------------------------------------------------------------ *)
(* Workloads *)

type job = {
  label : string;
  cq : Cq.t;
  dir : string;  (** data-set sub-directory holding the query's relations *)
  plans : Ghd.t list;
  skip : string list;
  counts : int;  (** Yannakakis.count calls *)
  releases : int;  (** TSensDP releases from the one analysis *)
  privsql : int;  (** PrivSQL releases *)
}

let dp_setup label = List.assoc label Queries.dp_setups

let tpch_job ~counts ~releases ~privsql label =
  {
    label;
    cq = (dp_setup label).Queries.query;
    dir = "tpch";
    plans = Queries.tpch_plans;
    skip = [];
    counts;
    releases;
    privsql;
  }

(* Table 2's configuration: one analysis per query with every relation
   but the private one skipped, as the table2 experiment does. *)
let dp_job (label, s) =
  let tpch = List.mem label [ "q1"; "q2"; "q3" ] in
  {
    label;
    cq = s.Queries.query;
    dir = (if tpch then "tpch" else "fb_" ^ label);
    plans = (if tpch then Queries.tpch_plans else Queries.facebook_plans);
    skip =
      List.filter
        (fun r -> not (String.equal r s.Queries.private_relation))
        (Cq.relation_names s.Queries.query);
    counts = 1;
    releases = 20;
    privsql = 1;
  }

(* One round of each workload. Every workload runs every pipeline, so
   that no end-to-end metric is 0. tpch-acyclic repeats its cheapest
   call (a release takes about a millisecond) so that the timed sum is
   well above the clock's and the scheduler's noise; the analysis still
   dominates. *)
let workloads =
  [
    ( "tpch-acyclic",
      [
        tpch_job ~counts:1 ~releases:100 ~privsql:1 "q1";
        tpch_job ~counts:1 ~releases:100 ~privsql:1 "q2";
      ] );
    ("dp-release", List.map dp_job Queries.dp_setups);
  ]

let planned_ops jobs =
  List.fold_left
    (fun acc j -> acc + j.counts + 2 + j.releases + j.privsql)
    0 jobs

(* ------------------------------------------------------------------ *)
(* Answer checks: [None] when the answer is right, else the reason. *)

let check_output_size ~output_size ~count =
  if output_size = count then None
  else Some (Printf.sprintf "Tsens.output_size %d <> Yannakakis.count %d" output_size count)

let check_witness ~ls ~witness_sensitivity =
  match witness_sensitivity with
  | None when ls = 0 -> None
  | None -> Some (Printf.sprintf "no witness for local sensitivity %d" ls)
  | Some s when s = ls -> None
  | Some s ->
      Some (Printf.sprintf "witness tuple sensitivity %d <> local sensitivity %d" s ls)

let check_elastic ~tsens_ls ~elastic_ls =
  if tsens_ls <= elastic_ls then None
  else Some (Printf.sprintf "TSens LS %d > Elastic LS %d" tsens_ls elastic_ls)

let check_report ~count ~ell (r : Report.t) =
  if not (Float.equal r.Report.true_answer (float_of_int count)) then
    Some (Printf.sprintf "true_answer %.17g <> |Q(D)| %d" r.Report.true_answer count)
  else if r.Report.threshold > ell then
    Some (Printf.sprintf "threshold %d > ell %d" r.Report.threshold ell)
  else if not (Float.is_finite (Report.released r)) then
    Some "release is not finite"
  else None

(* ------------------------------------------------------------------ *)
(* Running *)

let now = Unix.gettimeofday

(* What one round of the workload did. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  times : (string * string, float) Hashtbl.t;  (** (metric, query) -> seconds *)
}

let add_time t metric label dt =
  let key = (metric, label) in
  Hashtbl.replace t.times key
    (dt +. Option.value ~default:0.0 (Hashtbl.find_opt t.times key))

(* Runs one timed operation; [check] inspects its answer. An operation
   fails if it raises or its check does; either way it counts once. *)
let op t ~metric ~label ~what ?(check = fun _ -> None) f =
  t.attempted <- t.attempted + 1;
  let fail msg =
    t.failed <- t.failed + 1;
    t.failures <- (label ^ " " ^ what ^ ": " ^ msg) :: t.failures;
    None
  in
  let start = now () in
  match f () with
  | exception e -> fail (Printexc.to_string e)
  | v -> (
      add_time t metric label (now () -. start);
      match check v with None -> Some v | Some msg -> fail msg)

let load_dir path =
  Sys.readdir path |> Array.to_list |> List.sort String.compare
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".csv" then
           Some (Filename.chop_suffix f ".csv", Csv.read_file (Filename.concat path f))
         else None)
  |> Database.of_list

type analysis_stats = {
  mutable botjoin_s : float;
  mutable topjoin_s : float;
  mutable botjoin_rows : int;
  mutable topjoin_rows : int;
  mutable tables_s : float;
  mutable table_rows : int;
  mutable dense : int;
  mutable factored : int;
  mutable outputs : (string * int) list;  (** |Q(D)| per query *)
  mutable query_s : (string * float) list;  (** wall time per query *)
}

let record_stats st analysis ~seconds =
  let nodes, tables = Tsens.statistics analysis in
  let bot = List.fold_left (fun a n -> a +. n.Tsens.botjoin_seconds) 0.0 nodes in
  let top = List.fold_left (fun a n -> a +. n.Tsens.topjoin_seconds) 0.0 nodes in
  st.botjoin_s <- st.botjoin_s +. bot;
  st.topjoin_s <- st.topjoin_s +. top;
  st.tables_s <- st.tables_s +. Float.max 0.0 (seconds -. bot -. top);
  List.iter
    (fun n ->
      st.botjoin_rows <- st.botjoin_rows + n.Tsens.botjoin_rows;
      st.topjoin_rows <- st.topjoin_rows + n.Tsens.topjoin_rows)
    nodes;
  List.iter
    (fun s ->
      st.table_rows <- st.table_rows + s.Tsens.table_rows;
      if s.Tsens.factored then st.factored <- st.factored + 1
      else st.dense <- st.dense + 1)
    tables

let run_job t st rng db job =
  let start = now () in
  let s = dp_setup job.label in
  let op ~metric ~what = op t ~metric ~label:job.label ~what in
  let count = ref None in
  for _ = 1 to job.counts do
    let c =
      op ~metric:"eval_s" ~what:"Yannakakis.count"
        ~check:(fun c ->
          match !count with
          | Some first when first <> c ->
              Some (Printf.sprintf "count %d differs from the first count %d" c first)
          | _ -> None)
        (fun () -> Yannakakis.count ~plans:job.plans job.cq db)
    in
    if !count = None then count := c
  done;
  let count = !count in
  let analysis_start = now () in
  let analysis =
    op ~metric:"analysis_s" ~what:"Tsens.analyze"
      ~check:(fun a ->
        let r = Tsens.result a in
        let output_size = Tsens.output_size a in
        match Option.bind count (fun count -> check_output_size ~output_size ~count) with
        | Some _ as failure -> failure
        | None ->
            check_witness ~ls:r.Sens_types.local_sensitivity
              ~witness_sensitivity:
                (Option.map
                   (fun w -> Tsens.tuple_sensitivity a w.Sens_types.relation w.Sens_types.tuple)
                   r.Sens_types.witness))
      (fun () -> Tsens.analyze ~skip:job.skip ~plans:job.plans job.cq db)
  in
  let analysis_s = now () -. analysis_start in
  Option.iter (fun a -> record_stats st a ~seconds:analysis_s) analysis;
  ignore
    (op ~metric:"elastic_s" ~what:"Elastic.local_sensitivity"
       ~check:(fun e ->
         match analysis with
         | None -> None
         | Some a ->
             check_elastic
               ~tsens_ls:(Tsens.result a).Sens_types.local_sensitivity
               ~elastic_ls:e.Sens_types.local_sensitivity)
       (fun () -> Elastic.local_sensitivity ~plans:job.plans job.cq db));
  let report_check r =
    match count with None -> None | Some count -> check_report ~count ~ell:s.Queries.ell r
  in
  (match analysis with
  | None ->
      t.attempted <- t.attempted + job.releases;
      t.failed <- t.failed + job.releases
  | Some a ->
      let config =
        Mechanism.default_config ~ell:s.Queries.ell
          ~private_relation:s.Queries.private_relation
      in
      for _ = 1 to job.releases do
        ignore
          (op ~metric:"release_s" ~what:"Mechanism.run_with_analysis" ~check:report_check
             (fun () -> Mechanism.run_with_analysis rng config a))
      done);
  let config =
    Privsql.default_config ~ell:s.Queries.ell
      ~private_relation:s.Queries.private_relation ~cascade:s.Queries.cascade
  in
  for _ = 1 to job.privsql do
    ignore
      (op ~metric:"privsql_s" ~what:"Privsql.run" ~check:report_check (fun () ->
           Privsql.run rng config ~plans:job.plans job.cq db))
  done;
  Option.iter (fun c -> st.outputs <- (job.label, c) :: st.outputs) count;
  st.query_s <- (job.label, now () -. start) :: st.query_s

(* ------------------------------------------------------------------ *)
(* Reporting *)

(* Peak resident set of this process since the last [reset_peak_rss],
   from the kernel's high-water mark. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
      |> Option.value ~default:0.0

(* Obs aggregates spans per call path; fold them by operator (the last
   path component) so one number covers every calling context. *)
let fold_spans (report : Obs.Report.t) name =
  List.fold_left
    (fun (calls, secs, self) (sp : Obs.Report.span_stat) ->
      let op =
        match String.rindex_opt sp.path '/' with
        | Some i -> String.sub sp.path (i + 1) (String.length sp.path - i - 1)
        | None -> sp.path
      in
      if String.equal op name then
        (calls + sp.calls, secs +. sp.seconds, self +. sp.self_seconds)
      else (calls, secs, self))
    (0, 0.0, 0.0) report.spans

let total (l : Obs.Report.total list) name =
  match List.find_opt (fun (x : Obs.Report.total) -> String.equal x.name name) l with
  | Some x -> x.total
  | None -> 0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let layers ~analysis_s ~releases st report (g0 : Gc.stat) (g1 : Gc.stat) =
  let counter = total report.Obs.Report.counters in
  let gauge = total report.Obs.Report.gauges in
  let self name = let _, _, s = fold_spans report name in s in
  let profile_calls, profile_s, _ = fold_spans report "truncation.profile" in
  let rows = counter "join.rows_emitted" and probes = counter "index.probes" in
  let hits = counter "elastic.memo_hits" and evals = counter "elastic.mf_evals" in
  [
    ("relational.join_rows_emitted", Int rows);
    ("relational.index_probes", Int probes);
    ("relational.probe_yield", Num (ratio rows probes));
    ("relational.join_stream_self_s", Num (self "join.stream"));
    ("relational.rows_projected", Int (counter "relation.rows_projected"));
    ("relational.project_self_s", Num (self "relation.project"));
    ("relational.index_builds", Int (counter "index.builds"));
    ("relational.index_rows_indexed", Int (counter "index.rows_indexed"));
    ("relational.index_build_self_s", Num (self "index.build"));
    ("relational.max_group_table_rows", Int (gauge "join.max_group_table_rows"));
    ("relational.index_max_group_rows", Int (gauge "index.max_group_rows"));
    ("sensitivity.analysis_s", Num analysis_s);
    ("sensitivity.botjoin_s", Num st.botjoin_s);
    ("sensitivity.topjoin_s", Num st.topjoin_s);
    ("sensitivity.botjoin_rows", Int st.botjoin_rows);
    ("sensitivity.topjoin_rows", Int st.topjoin_rows);
    ("sensitivity.tables_s", Num st.tables_s);
    ("sensitivity.tables_share", Num (if analysis_s > 0.0 then st.tables_s /. analysis_s else 0.0));
    ("sensitivity.table_rows_stored", Int st.table_rows);
    ("sensitivity.tables_dense", Int st.dense);
    ("sensitivity.tables_factored", Int st.factored);
    ("sensitivity.elastic_mf_evals", Int evals);
    ("sensitivity.elastic_memo_hit_ratio", Num (ratio hits (hits + evals)));
    ("dp.releases", Int releases);
    ("dp.profile_calls", Int profile_calls);
    ("dp.entries_profiled", Int (counter "truncation.entries_profiled"));
    ("dp.profile_s", Num profile_s);
    ("gc.minor_words", Num (g1.minor_words -. g0.minor_words));
    ("gc.major_words", Num (g1.major_words -. g0.major_words));
    ("gc.major_collections", Int (g1.major_collections - g0.major_collections));
    ("gc.top_heap_words", Int g1.top_heap_words);
    ("exec.jobs", Int (Exec.jobs ()));
    ("input.output_size", Int (List.fold_left (fun a (_, c) -> a + c) 0 st.outputs));
  ]

(* A fixed computation that uses only the standard library: hash-table
   grouping of boxed int tuples, the kind of work the program spends its
   time on. Each child times it before it loads anything, and run.py
   scales the child's times by it, which cancels the drift of a shared
   host's speed. No change to the program changes this kernel. *)
module Ktbl = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let reference () =
  let t = Ktbl.create 16 and g = Ktbl.create 16 in
  let x = ref 12345 in
  for _ = 1 to 20_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = [| !x land 1023; (!x lsr 10) land 255; !x lsr 18 |] in
    Ktbl.replace t k (1 + Option.value ~default:0 (Ktbl.find_opt t k))
  done;
  Ktbl.iter
    (fun k c ->
      let k2 = [| k.(0); k.(1) |] in
      Ktbl.replace g k2 (c + Option.value ~default:0 (Ktbl.find_opt g k2)))
    t;
  Ktbl.length g

let time_reference () =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference ()));
  now () -. t0

(* Times the reference kernel, loads the data set [loads] times (run.py
   takes the median load as the set-up time), then runs rounds of the
   workload while the next one should end within [seconds] of the start,
   and at least one. Prints one JSON line for the plan, one for the
   reference and the loads, one per round and one at the end; run.py
   takes medians over the rounds. *)
let run ~workload ~data ~seed ~trace ~seconds ~loads =
  let jobs =
    match List.assoc_opt workload workloads with
    | Some jobs -> jobs
    | None ->
        prerr_endline ("worker: unknown workload " ^ workload);
        exit 2
  in
  let start = now () in
  (* Announced first, so that the parent can count the operations of a
     round it had to kill. *)
  emit (Obj [ ("planned", Int (planned_ops jobs)) ]);
  let dirs = List.sort_uniq String.compare (List.map (fun j -> j.dir) jobs) in
  let refs = List.init 5 (fun _ -> Num (time_reference ())) in
  let dbs = ref [] and setup = ref [] in
  for _ = 1 to max 1 loads do
    dbs := [];
    let t0 = now () in
    dbs := List.map (fun d -> (d, load_dir (Filename.concat data d))) dirs;
    setup := Num (now () -. t0) :: !setup
  done;
  let dbs = !dbs in
  emit (Obj [ ("ref_s", List refs); ("setup_s", List (List.rev !setup)) ]);
  if trace then Obs.enable ();
  let rng = Prng.create seed in
  let releases = List.fold_left (fun a j -> a + j.releases) 0 jobs in
  let rounds_start = now () in
  let rounds = ref 0 in
  let another () =
    let elapsed = now () -. rounds_start in
    !rounds = 0 || now () -. start +. (elapsed /. float_of_int !rounds) <= seconds
  in
  while another () do
    Obs.reset ();
    let g0 = Gc.quick_stat () in
    let t = { attempted = 0; failed = 0; failures = []; times = Hashtbl.create 16 } in
    let st =
      {
        botjoin_s = 0.0; topjoin_s = 0.0; botjoin_rows = 0; topjoin_rows = 0;
        tables_s = 0.0; table_rows = 0; dense = 0; factored = 0; outputs = []; query_s = [];
      }
    in
    reset_peak_rss ();
    let r0 = now () in
    List.iter (fun j -> run_job t st rng (List.assoc j.dir dbs) j) jobs;
    let round_s = now () -. r0 in
    let g1 = Gc.quick_stat () in
    let metric m =
      ( m,
        Obj
          (List.filter_map
             (fun j ->
               Option.map (fun s -> (j.label, Num s)) (Hashtbl.find_opt t.times (m, j.label)))
             jobs) )
    in
    let analysis_s =
      Hashtbl.fold (fun (m, _) s a -> if String.equal m "analysis_s" then a +. s else a) t.times 0.0
    in
    let layers =
      if trace then layers ~analysis_s ~releases st (Obs.Report.capture ()) g0 g1 else []
    in
    emit
      (Obj
         [
           ("round", Int !rounds);
           ("attempted", Int t.attempted);
           ("failed", Int t.failed);
           ("failures", List (List.rev_map (fun s -> Str s) t.failures));
           ("round_s", Num round_s);
           ("peak_rss_mb", Num (peak_rss_mb ()));
           ( "times",
             Obj
               (List.map metric
                  [ "analysis_s"; "elastic_s"; "eval_s"; "release_s"; "privsql_s" ]) );
           ("layers", Obj layers);
           ("output_sizes", Obj (List.rev_map (fun (l, c) -> (l, Int c)) st.outputs));
           ("query_s", Obj (List.rev_map (fun (l, s) -> (l, Num s)) st.query_s));
         ]);
    incr rounds
  done;
  Obs.disable ();
  emit (Obj [ ("exec_jobs", Int (Exec.jobs ())) ])

(* ------------------------------------------------------------------ *)
(* Self-test: every check accepts a real answer and rejects a perturbed
   one, on q1 over a (small) generated TPC-H data set. *)

let selftest ~data =
  let db = load_dir (Filename.concat data "tpch") in
  let s = dp_setup "q1" in
  let cq = s.Queries.query and plans = Queries.tpch_plans and ell = s.Queries.ell in
  let count = Yannakakis.count ~plans cq db in
  let a = Tsens.analyze ~plans cq db in
  let ls = (Tsens.result a).Sens_types.local_sensitivity in
  let witness =
    Option.map
      (fun w -> Tsens.tuple_sensitivity a w.Sens_types.relation w.Sens_types.tuple)
      (Tsens.result a).Sens_types.witness
  in
  let elastic_ls = (Elastic.local_sensitivity ~plans cq db).Sens_types.local_sensitivity in
  let r =
    Mechanism.run_with_analysis (Prng.create 1)
      (Mechanism.default_config ~ell ~private_relation:s.Queries.private_relation)
      a
  in
  let cases =
    [
      ( "output size",
        check_output_size ~output_size:(Tsens.output_size a) ~count,
        check_output_size ~output_size:(count + 1) ~count );
      ( "witness",
        check_witness ~ls ~witness_sensitivity:witness,
        check_witness ~ls ~witness_sensitivity:(Some (ls - 1)) );
      ( "elastic",
        check_elastic ~tsens_ls:ls ~elastic_ls,
        check_elastic ~tsens_ls:(elastic_ls + 1) ~elastic_ls );
      ( "true answer",
        check_report ~count ~ell r,
        check_report ~count ~ell { r with Report.true_answer = r.Report.true_answer +. 1.0 } );
      ( "threshold",
        check_report ~count ~ell r,
        check_report ~count ~ell { r with Report.threshold = ell + 1 } );
      ( "finite release",
        check_report ~count ~ell r,
        check_report ~count ~ell { r with Report.noisy_answer = Float.infinity } );
    ]
  in
  let bad =
    List.filter_map
      (fun (name, good, perturbed) ->
        match (good, perturbed) with
        | None, Some _ -> None
        | Some msg, _ -> Some (name ^ ": rejects the real answer: " ^ msg)
        | None, None -> Some (name ^ ": accepts a perturbed answer"))
      cases
  in
  List.iter prerr_endline bad;
  Printf.printf "selftest: %d of %d checks behave\n" (List.length cases - List.length bad)
    (List.length cases);
  exit (if bad = [] then 0 else 1)

let () =
  let workload = ref "" and data = ref "" and seed = ref 0 and trace = ref 0 in
  let seconds = ref 1.0 and loads = ref 1 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--data", Arg.Set_string data, "DIR generated data set");
      ("--seed", Arg.Set_int seed, "N seed of the DP mechanisms' noise");
      ("--trace", Arg.Set_int trace, "0|1 enable Obs and report per-layer numbers");
      ("--seconds", Arg.Set_float seconds, "S run rounds until S seconds have passed");
      ("--loads", Arg.Set_int loads, "N load the data set N times");
    ]
  in
  let command = ref "" in
  Arg.parse specs (fun c -> command := c) "worker.exe (run|selftest) [options]";
  match !command with
  | "run" ->
      run ~workload:!workload ~data:!data ~seed:!seed ~trace:(!trace = 1) ~seconds:!seconds
        ~loads:!loads
  | "selftest" -> selftest ~data:!data
  | _ ->
      prerr_endline "usage: worker.exe (run|selftest) --data DIR [options]";
      exit 2
