open Tsens_relational
open Tsens_query

let check_order cq order =
  match Classify.path_order cq with
  | None ->
      Errors.schema_errorf "CQ %s is not a path join query" (Cq.name cq)
  | Some detected -> (
      match order with
      | None -> detected
      | Some forced ->
          let same l = List.sort String.compare l in
          if
            same forced <> same detected
            || (forced <> detected && forced <> List.rev detected)
          then
            Errors.schema_errorf
              "%s is not a path order of CQ %s"
              (String.concat "," forced) (Cq.name cq)
          else forced)

let local_sensitivity ?order cq db =
  let order = check_order cq order in
  let names = Array.of_list order in
  let m = Array.length names in
  let instance = Sens_types.instance cq db in
  let rel i = Database.find names.(i) instance in
  let schema_of i = Cq.schema_of cq names.(i) in
  if m = 1 then
    (* Single relation: LS is always 1 (paper Section 2.1). *)
    let w = Sens_types.extender cq instance names.(0) Schema.empty [||] in
    Sens_types.result_of_per_relation
      [ (names.(0), Some (w, schema_of 0, Count.one)) ]
  else begin
    (* common.(i): the attribute linking R_i and R_{i+1} (the paper's
       A_{i+1} with 1-based numbering). *)
    let common =
      Array.init (m - 1) (fun i ->
          Schema.inter (schema_of i) (schema_of (i + 1)))
    in
    (* tops.(i) = ⊤(R_{i+1}) grouped on common.(i-1): incoming paths. *)
    let tops = Array.make m None in
    tops.(1) <- Some (Relation.project common.(0) (rel 0));
    for i = 2 to m - 1 do
      match tops.(i - 1) with
      | Some prev ->
          tops.(i) <-
            Some (Join.join_project ~group:common.(i - 1) prev (rel (i - 1)))
      | None -> assert false
    done;
    (* bots.(i) = ⊥(R_{i+1}) grouped on common.(i-1): outgoing paths. *)
    let bots = Array.make m None in
    bots.(m - 1) <- Some (Relation.project common.(m - 2) (rel (m - 1)));
    for i = m - 2 downto 1 do
      match bots.(i + 1) with
      | Some next ->
          bots.(i) <-
            Some (Join.join_project ~group:common.(i - 1) next (rel i))
      | None -> assert false
    done;
    let heaviest = function
      | None ->
          (* endpoints contribute factor 1 *)
          Some (Count.one, Schema.empty, [||])
      | Some table -> (
          match Relation.max_row table with
          | None -> None (* empty side: every tuple is insensitive *)
          | Some (row, cnt) -> Some (cnt, Relation.schema table, row))
    in
    let bests_in_path_order =
      List.init m (fun i ->
          let top = heaviest tops.(i) in
          let bot = heaviest (if i = m - 1 then None else bots.(i + 1)) in
          let best =
            match (top, bot) with
            | Some (ct, st, rt), Some (cb, sb, rb) ->
                (* The two sides pin disjoint attributes (each variable of
                   a path occurs in at most two atoms); endpoint
                   attributes take any value. *)
                let w =
                  Sens_types.extender cq instance names.(i)
                    (Schema.union st sb) (Array.append rt rb)
                in
                Some (w, schema_of i, Count.mul ct cb)
            | None, _ | _, None -> None
          in
          (names.(i), best))
    in
    (* Report in atom order, like the other algorithms. *)
    let bests =
      List.map
        (fun r -> (r, List.assoc r bests_in_path_order))
        (Cq.relation_names cq)
    in
    Sens_types.result_of_per_relation bests
  end
