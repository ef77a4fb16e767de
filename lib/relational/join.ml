(* All operators hash-partition the right side on the common attributes
   and stream the left side through it. The combined tuple layout is
   always: left tuple ++ (right tuple minus common attributes), matching
   [Schema.union left right].

   Above the parallel cutoff the binary operators switch to a
   partition-parallel plan: both sides are hash-partitioned on the
   join-key hash into one bucket per pool domain, bucket k of the left
   joins bucket k of the right on its own domain (equal keys always meet
   — they share a hash), and the per-partition results merge in bucket
   order at the barrier. Saturating count addition is associative and
   commutative and [Relation.create] canonicalizes, so outputs are
   bit-identical to the sequential plan at any job count. *)

let c_rows = Obs.counter "join.rows_emitted"
let c_sat = Obs.counter "count.saturations"
let g_groups = Obs.gauge "join.max_group_table_rows"

(* Emitting is the per-row hot path: only interpose on it when the sink
   is live, so the disabled cost stays at the operators' entry branches. *)
let instrument_emit emit =
  if not (Obs.enabled ()) then emit
  else fun tup cnt ->
    Obs.tick c_rows;
    if Count.is_saturated cnt then Obs.tick c_sat;
    emit tup cnt

(* Aggregation can saturate even when every emitted row is finite: a
   per-group sum crosses max_count inside the grouping table, which the
   emit instrumentation above never sees. Tick the saturation counter at
   the transition (both operands finite, sum saturated) so overflow that
   happens in group-by — not in emission — still reaches the report. *)
let add_tracked prev cnt =
  let sum = Count.add prev cnt in
  if
    Obs.enabled ()
    && Count.is_saturated sum
    && not (Count.is_saturated prev)
    && not (Count.is_saturated cnt)
  then Obs.tick c_sat;
  sum

type plan = {
  combined : Schema.t;
  common_left : int array; (* positions of common attrs in the left schema *)
  right_extra : int array; (* positions of right-only attrs in the right schema *)
  common_right : Schema.t; (* common attrs, left order; index key and probe agree *)
}

let make_plan left right =
  let common = Schema.inter left right in
  let combined = Schema.union left right in
  let right_only = Schema.diff right left in
  {
    combined;
    common_left = Schema.positions ~sub:common left;
    right_extra = Schema.positions ~sub:right_only right;
    common_right = common;
  }

(* The index key is the common schema *in left order* so that probing with
   a left-side projection matches. *)
let build_right_index plan right_rel =
  Index.build ~key:plan.common_right right_rel

let combine plan left_tup right_tup =
  Tuple.concat left_tup (Tuple.project plan.right_extra right_tup)

let stream_join a b emit =
  Obs.span "join.stream" @@ fun () ->
  let emit = instrument_emit emit in
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  let idx = build_right_index plan b in
  Relation.iter
    (fun ltup lcnt ->
      let key = Tuple.project plan.common_left ltup in
      Array.iter
        (fun (rtup, rcnt) ->
          emit (combine plan ltup rtup) (Count.mul lcnt rcnt))
        (Index.lookup idx key))
    a;
  plan.combined

module H = Tuple.Tbl

(* ------------------------------------------------------------------ *)
(* The partition-parallel core. [emit_partition] receives one partition
   id plus the per-partition probe driver and returns that partition's
   result; results are combined in partition order by the caller. The
   driver builds a local hash table of the right bucket and streams the
   left bucket through it — the same plan as [stream_join], confined to
   one bucket. *)

let partitioned plan a b emit_partition =
  let parts = Exec.jobs () in
  let project_keys positions rel =
    let rows = Relation.rows rel in
    let keys =
      Exec.parallel_map (fun (tup, _) -> Tuple.project positions tup) rows
    in
    let buckets = Exec.parallel_map (fun k -> Tuple.bucket k parts) keys in
    (rows, keys, buckets)
  in
  let right_positions =
    Schema.positions ~sub:plan.common_right (Relation.schema b)
  in
  let left = project_keys plan.common_left a in
  let right = project_keys right_positions b in
  let results = Array.make parts None in
  Exec.parallel_for ~chunks:parts 0 parts (fun p ->
      let drive emit =
        let rrows, rkeys, rbuckets = right in
        let index : (Tuple.t * Count.t) list H.t = H.create 64 in
        Array.iteri
          (fun j row ->
            if rbuckets.(j) = p then begin
              let prev = try H.find index rkeys.(j) with Not_found -> [] in
              H.replace index rkeys.(j) (row :: prev)
            end)
          rrows;
        let lrows, lkeys, lbuckets = left in
        Array.iteri
          (fun i (ltup, lcnt) ->
            if lbuckets.(i) = p then
              match H.find_opt index lkeys.(i) with
              | None -> ()
              | Some group ->
                  List.iter
                    (fun (rtup, rcnt) ->
                      emit (combine plan ltup rtup) (Count.mul lcnt rcnt))
                    group
          )
          lrows
      in
      results.(p) <- Some (emit_partition p drive));
  Array.to_list results |> List.filter_map Fun.id

(* Total distinct rows on both sides: the size the parallel cutoff is
   judged against. *)
let pair_size a b = Relation.distinct_count a + Relation.distinct_count b

(* Each binary operator dispatches on the storage mode up front: the
   columnar kernels (Coljoin) run the same logical plan on dictionary
   ids and are bit-identical to the row implementations below, which
   stay as the always-available oracle (and the default). *)

let natural_join_rows a b =
  if not (Exec.pays_off (pair_size a b)) then begin
    let acc = ref [] in
    let combined = stream_join a b (fun tup cnt -> acc := (tup, cnt) :: !acc) in
    Relation.create ~schema:combined (List.rev !acc)
  end
  else
    Obs.span "join.partition" @@ fun () ->
    let plan = make_plan (Relation.schema a) (Relation.schema b) in
    let per_partition =
      partitioned plan a b (fun _p drive ->
          let acc = ref [] in
          let emit = instrument_emit (fun tup cnt -> acc := (tup, cnt) :: !acc) in
          drive emit;
          List.rev !acc)
    in
    Relation.create ~schema:plan.combined (List.concat per_partition)

let natural_join a b =
  if Storage.is_columnar () then
    Obs.span "join.columnar" @@ fun () -> Coljoin.natural_join a b
  else natural_join_rows a b

let join_project_rows ~group a b positions =
  if not (Exec.pays_off (pair_size a b)) then begin
    let table = H.create 1024 in
    let emit tup cnt =
      let key = Tuple.project positions tup in
      let prev = try H.find table key with Not_found -> 0 in
      H.replace table key (add_tracked prev cnt)
    in
    let (_ : Schema.t) = stream_join a b emit in
    Obs.observe g_groups (H.length table);
    Relation.create ~schema:group (H.fold (fun t c acc -> (t, c) :: acc) table [])
  end
  else begin
    let plan = make_plan (Relation.schema a) (Relation.schema b) in
    (* Group keys need not contain the join key, so one group can span
       partitions: each partition aggregates its own table and
       [Relation.create]'s normalization sums the spans — order-free
       because saturating addition is. The gauge consequently reports
       the largest per-partition table. *)
    let per_partition =
      partitioned plan a b (fun _p drive ->
          let table = H.create 1024 in
          let grouping tup cnt =
            let key = Tuple.project positions tup in
            let prev = try H.find table key with Not_found -> 0 in
            H.replace table key (add_tracked prev cnt)
          in
          drive (instrument_emit grouping);
          Obs.observe g_groups (H.length table);
          H.fold (fun t c acc -> (t, c) :: acc) table [])
    in
    Relation.create ~schema:group (List.concat per_partition)
  end

let join_project ~group a b =
  Obs.span "join.project" @@ fun () ->
  let combined = Schema.union (Relation.schema a) (Relation.schema b) in
  if not (Schema.subset group combined) then
    Errors.schema_errorf "join_project: %a not a subset of joined schema %a"
      Schema.pp group Schema.pp combined;
  if Storage.is_columnar () then Coljoin.join_project ~group a b
  else
    let positions = Schema.positions ~sub:group combined in
    join_project_rows ~group a b positions

let join_all = function
  | [] -> invalid_arg "Join.join_all: empty list"
  | r :: rest -> List.fold_left natural_join r rest

(* Sort-merge: both sides keyed by their common-attribute projection and
   sorted; equal-key runs pair up as block cross products. *)
let merge_join a b =
  Obs.span "join.merge" @@ fun () ->
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  let keyed rel positions =
    let rows = Relation.rows rel in
    let arr =
      Array.map (fun (tup, cnt) -> (Tuple.project positions tup, tup, cnt)) rows
    in
    Array.sort (fun (k1, t1, _) (k2, t2, _) ->
        match Tuple.compare k1 k2 with 0 -> Tuple.compare t1 t2 | c -> c)
      arr;
    arr
  in
  let right_positions =
    Schema.positions ~sub:plan.common_right (Relation.schema b)
  in
  let left = keyed a plan.common_left in
  let right = keyed b right_positions in
  let key (k, _, _) = k in
  (* End of the run of equal keys starting at [i]. *)
  let run_end arr i =
    let k = key arr.(i) in
    let j = ref (i + 1) in
    while !j < Array.length arr && Tuple.equal (key arr.(!j)) k do
      incr j
    done;
    !j
  in
  let out = ref [] in
  (* Instrument each row as it is emitted rather than re-walking the
     accumulated output afterwards. *)
  let emit = instrument_emit (fun tup cnt -> out := (tup, cnt) :: !out) in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length left && !j < Array.length right do
    let c = Tuple.compare (key left.(!i)) (key right.(!j)) in
    if c < 0 then i := run_end left !i
    else if c > 0 then j := run_end right !j
    else begin
      let i_end = run_end left !i and j_end = run_end right !j in
      for li = !i to i_end - 1 do
        let _, ltup, lcnt = left.(li) in
        for rj = !j to j_end - 1 do
          let _, rtup, rcnt = right.(rj) in
          emit (combine plan ltup rtup) (Count.mul lcnt rcnt)
        done
      done;
      i := i_end;
      j := j_end
    end
  done;
  Relation.create ~schema:plan.combined !out

(* Greedy connected ordering: start from the widest relation and keep
   picking a relation sharing attributes with the accumulated schema
   (most shared first), falling back to the widest remaining one when
   only cross products are left. The result is order-independent; the
   ordering only controls intermediate sizes — deferring cross products
   is the difference between |R|+|S| and |R|·|S| intermediates. *)
let connected_order rels =
  let rels = Array.of_list rels in
  let used = Array.make (Array.length rels) false in
  let pick better =
    let best = ref (-1) in
    Array.iteri
      (fun i r ->
        if (not used.(i)) && (!best < 0 || better r rels.(!best)) then best := i)
      rels;
    !best
  in
  let arity r = Schema.arity (Relation.schema r) in
  let ordered = ref [] in
  let acc_schema = ref Schema.empty in
  let take i =
    used.(i) <- true;
    acc_schema := Schema.union !acc_schema (Relation.schema rels.(i));
    ordered := rels.(i) :: !ordered
  in
  if Array.length rels > 0 then take (pick (fun a b -> arity a > arity b));
  for _ = 2 to Array.length rels do
    let overlap r = Schema.arity (Schema.inter (Relation.schema r) !acc_schema) in
    let i = pick (fun a b -> overlap a > overlap b) in
    let i =
      (* All remaining are disjoint from the accumulator: defer the cross
         product to the widest one. *)
      if overlap rels.(i) > 0 then i else pick (fun a b -> arity a > arity b)
    in
    take i
  done;
  List.rev !ordered

let join_project_all ~group rels =
  Obs.span "join.project_all" @@ fun () ->
  match connected_order rels with
  | [] -> invalid_arg "Join.join_project_all: empty list"
  | [ r ] -> Relation.project group r
  | first :: rest ->
      (* Attributes needed downstream of position i: anything in [group]
         or in a relation joined after i. Projecting intermediates onto
         this set preserves the final grouped counts; the last join
         groups by [group] itself. *)
      let rec loop acc = function
        | [] -> acc
        | [ r ] -> join_project ~group acc r
        | r :: later ->
            let still_needed =
              List.fold_left
                (fun s rel -> Schema.union s (Relation.schema rel))
                group later
            in
            let keep =
              Schema.inter
                (Schema.union (Relation.schema acc) (Relation.schema r))
                still_needed
            in
            loop (join_project ~group:keep acc r) later
      in
      loop first rest

let semijoin a b =
  let common = Schema.inter (Relation.schema a) (Relation.schema b) in
  let positions = Schema.positions ~sub:common (Relation.schema a) in
  let idx = Index.build ~key:common b in
  Relation.filter
    (fun _schema tup ->
      Index.group_count idx (Tuple.project positions tup) > 0)
    a

let count_join a b =
  Obs.span "join.count" @@ fun () ->
  if Storage.is_columnar () then Coljoin.count_join a b
  else if not (Exec.pays_off (pair_size a b)) then begin
    let total = ref Count.zero in
    let plan = make_plan (Relation.schema a) (Relation.schema b) in
    let idx = build_right_index plan b in
    Relation.iter
      (fun ltup lcnt ->
        let key = Tuple.project plan.common_left ltup in
        let group = Index.group_count idx key in
        total := add_tracked !total (Count.mul lcnt group))
      a;
    !total
  end
  else begin
    let plan = make_plan (Relation.schema a) (Relation.schema b) in
    let per_partition =
      partitioned plan a b (fun _p drive ->
          let total = ref Count.zero in
          drive (fun _tup cnt -> total := add_tracked !total cnt);
          !total)
    in
    List.fold_left add_tracked Count.zero per_partition
  end
