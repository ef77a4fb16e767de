(* Nested-loop reference for the relational kernels: join, group-by,
   count and index scan written over [Relation.rows] with plain Stdlib
   lists. Quadratic on purpose — it is the oracle test_storage checks
   [Join], [Relation.project] and [Index] against, so it shares no code
   with them beyond saturating [Count] arithmetic. A bag is a list of
   distinct (tuple, count) pairs sorted by [compare]. *)

open Tsens_relational

let rows r = Array.to_list (Relation.rows r)

let get schema attr (tup : Tuple.t) = tup.(Schema.index attr schema)

(* Sum the counts of equal tuples. *)
let group pairs =
  List.sort compare pairs
  |> List.fold_left
       (fun acc (t, c) ->
         match acc with
         | (t', c') :: rest when t' = t -> (t, Count.add c' c) :: rest
         | _ -> (t, c) :: acc)
       []
  |> List.rev

let project_rows target schema pairs =
  let attrs = Schema.attrs target in
  group
    (List.map
       (fun (t, c) -> (Array.of_list (List.map (fun x -> get schema x t) attrs), c))
       pairs)

(* Every pair of rows agreeing on the common attributes, laid out in
   [Schema.union] order. *)
let join_rows a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let combined = Schema.union sa sb in
  let common = Schema.attrs (Schema.inter sa sb) in
  let pairs =
    List.concat_map
      (fun (ta, ca) ->
        List.filter_map
          (fun (tb, cb) ->
            if List.for_all (fun x -> get sa x ta = get sb x tb) common then
              let value x = if Schema.mem x sa then get sa x ta else get sb x tb in
              Some
                ( Array.of_list (List.map value (Schema.attrs combined)),
                  Count.mul ca cb )
            else None)
          (rows b))
      (rows a)
  in
  (combined, pairs)

let natural_join a b =
  let combined, pairs = join_rows a b in
  (combined, group pairs)

let join_project ~group a b =
  let combined, pairs = join_rows a b in
  (group, project_rows group combined pairs)

let project target r = (target, project_rows target (Relation.schema r) (rows r))

(* Index scan: the summed counts of the rows of [r] whose [key]
   projection equals [k]. *)
let group_count ~key r k =
  let schema = Relation.schema r in
  List.fold_left
    (fun acc (t, c) ->
      if
        List.for_all2 (fun x v -> get schema x t = v) (Schema.attrs key)
          (Array.to_list k)
      then Count.add acc c
      else acc)
    Count.zero (rows r)

(* A kernel result equals a reference bag: same schema, same rows. *)
let matches r (schema, bag) =
  Schema.equal (Relation.schema r) schema
  && List.sort compare (rows r) = bag
