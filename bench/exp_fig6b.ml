(* Figure 6b: the most sensitive tuple and its tuple sensitivity for
   every relation of q3, against the per-relation elastic sensitivity
   bound (which cannot name a tuple). *)

open Tsens_relational
open Tsens_sensitivity
open Tsens_workload

let run ~seed ~scale =
  Bench_util.print_heading
    (Printf.sprintf
       "Figure 6b: most sensitive tuples per relation, q3 at scale %g" scale);
  let db = Tpch.generate ~seed ~scale () in
  (* Lineitem is skipped as in the paper's Figure 6b: its key is a
     superkey of the join head, so its tuple sensitivity is at most 1. *)
  let analysis =
    Tsens.analyze ~skip:[ "Lineitem" ] ~plans:[ Queries.q3_ghd ] Queries.q3 db
  in
  let result = Tsens.result analysis in
  let elastic_plan = Elastic.plan_of_cq ~plans:[ Queries.q3_ghd ] Queries.q3 in
  let instance = Sens_types.instance Queries.q3 db in
  let rows =
    List.map
      (fun (relation, tuple_sens) ->
        let witness =
          match Tsens.multiplicity_table analysis relation with
          | table -> (
              match Relation.max_row table with
              | Some (row, _) ->
                  Tuple.to_string (Tsens.witness_tuple analysis relation row)
              | None -> "-")
          | exception Tsens_relational.Errors.Schema_error _ ->
              "skipped (FK superkey)"
        in
        let elastic =
          Elastic.relation_sensitivity Queries.q3 instance elastic_plan
            relation
        in
        [
          relation;
          witness;
          Bench_util.count_to_string tuple_sens;
          Bench_util.count_to_string elastic;
        ])
      result.Sens_types.per_relation
  in
  Bench_util.print_table
    ~columns:
      [ "relation"; "most sensitive tuple"; "tuple sens (TSens)"; "Elastic" ]
    rows;
  Printf.printf "local sensitivity: %s\n%!"
    (Bench_util.count_to_string result.Sens_types.local_sensitivity)
