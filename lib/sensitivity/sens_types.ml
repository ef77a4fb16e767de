open Tsens_relational
open Tsens_query

type selection = string -> Schema.t -> Tuple.t -> bool

type witness = {
  relation : string;
  schema : Schema.t;
  tuple : Tuple.t;
  sensitivity : Count.t;
}

type result = {
  local_sensitivity : Count.t;
  witness : witness option;
  per_relation : (string * Count.t) list;
}

let result_of_per_relation bests =
  let per_relation =
    List.map
      (fun (relation, best) ->
        match best with
        | None -> (relation, Count.zero)
        | Some (_, _, c) -> (relation, c))
      bests
  in
  let witness =
    List.fold_left
      (fun acc (relation, best) ->
        match best with
        | None -> acc
        | Some (tuple, schema, sensitivity) -> (
            match acc with
            | Some w when w.sensitivity >= sensitivity -> acc
            | _ -> Some { relation; schema; tuple; sensitivity }))
      None bests
  in
  let local_sensitivity =
    match witness with None -> Count.zero | Some w -> w.sensitivity
  in
  { local_sensitivity; witness; per_relation }

let instance ?selection cq db =
  let atoms = Cq.instance cq db in
  Database.of_list
    (match selection with
    | None -> atoms
    | Some pred ->
        List.map
          (fun (name, rel) ->
            (name, Relation.filter (fun schema t -> pred name schema t) rel))
          atoms)

let lonely_value rel attr =
  Option.value (Relation.min_value attr rel) ~default:(Value.str "any")

let extender cq db relation row_schema =
  let base = Database.find relation db in
  let value_of =
    List.map
      (fun attr ->
        match Schema.index_opt attr row_schema with
        | Some i -> fun row -> Tuple.get row i
        | None ->
            let v = lonely_value base attr in
            fun _ -> v)
      (Schema.attrs (Cq.schema_of cq relation))
  in
  fun row -> Tuple.of_list (List.map (fun f -> f row) value_of)

let heaviest_first r =
  let rows = Array.copy (Relation.rows r) in
  Array.sort
    (fun (t1, c1) (t2, c2) ->
      match Count.compare c2 c1 with 0 -> Tuple.compare t1 t2 | c -> c)
    rows;
  rows

let unit_relation =
  Relation.create ~schema:Schema.empty [ (Tuple.of_list [], Count.one) ]

let pp_witness ppf w =
  Format.fprintf ppf "%s%a with sensitivity %a" w.relation Tuple.pp w.tuple
    Count.pp w.sensitivity

let pp_result ppf r =
  Format.fprintf ppf "@[<v>LS = %a@," Count.pp r.local_sensitivity;
  (match r.witness with
  | Some w -> Format.fprintf ppf "witness: %a@," pp_witness w
  | None -> Format.fprintf ppf "witness: none@,");
  List.iter
    (fun (rel, c) -> Format.fprintf ppf "  max over %s: %a@," rel Count.pp c)
    r.per_relation;
  Format.fprintf ppf "@]"
