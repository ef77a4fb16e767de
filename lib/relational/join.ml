(* Bag-semantics joins over the dictionary-encoded storage. Both sides
   are encoded once ({!Relation.encoded}, memoized), join keys become
   single ints — the raw dictionary id for one-column keys, a dense
   {!Intkey.Keydict} id for multi-column keys (built over the right
   side, probed by the left; a probe miss is a guaranteed non-match) —
   and the build/probe loops run over open-addressing int tables with
   no boxed value in sight. Tuples reappear only when a result decodes
   back through {!Relation.of_encoded}.

   Above the parallel cutoff [natural_join] and [count_join]
   radix-partition both sides by the mixed key id (equal keys land in
   the same partition by construction) and run one partition per pool
   task; per-partition results merge in partition order. Saturating
   count sums are order-free and every output is canonicalized by
   sorting, so results are bit-identical at any job count. *)

let c_rows = Obs.counter "join.rows_emitted"
let c_sat = Obs.counter "count.saturations"
let g_groups = Obs.gauge "join.max_group_table_rows"

type plan = {
  combined : Schema.t;
  ca : Colrel.t;
  cb : Colrel.t;
  lsig : int array; (* per left row: key id, -1 = cannot match *)
  rsig : int array; (* per right row: key id, always >= 0 *)
  right_extra : int array; (* right-side column indexes not in the key *)
}

(* Key signatures for both sides. One-column keys use raw dictionary ids
   (the column arrays themselves — zero work); wider keys intern the
   right side's key vectors into dense ids and look the left side's up
   (absent = no partner anywhere on the right). A schema-disjoint pair
   degenerates to the counted cross product via the constant signature
   0. *)
let make_plan a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let common = Schema.inter sa sb in
  let combined = Schema.union sa sb in
  let ca = Relation.encoded a and cb = Relation.encoded b in
  let lpos = Schema.positions ~sub:common sa in
  let rpos = Schema.positions ~sub:common sb in
  let right_extra = Schema.positions ~sub:(Schema.diff sb sa) sb in
  let k = Array.length lpos in
  let lsig, rsig =
    if k = 0 then
      (Array.make (Colrel.nrows ca) 0, Array.make (Colrel.nrows cb) 0)
    else if k = 1 then (Colrel.col ca lpos.(0), Colrel.col cb rpos.(0))
    else begin
      let kd = Intkey.Keydict.create ~arity:k (Colrel.nrows cb) in
      let scratch = Array.make k 0 in
      let sigs lookup c pos =
        let srcs = Array.map (Colrel.col c) pos in
        Array.init (Colrel.nrows c) (fun i ->
            for j = 0 to k - 1 do
              scratch.(j) <- srcs.(j).(i)
            done;
            lookup kd scratch)
      in
      let rsig = sigs Intkey.Keydict.lookup_or_add cb rpos in
      let lsig = sigs Intkey.Keydict.lookup ca lpos in
      (lsig, rsig)
    end
  in
  { combined; ca; cb; lsig; rsig; right_extra }

(* Radix routing: partition of a key signature. Signatures are dense
   sequential ids, so they go through the avalanche mixer before the
   modulo. Unmatchable left rows (signature -1) route to -1: no
   partition touches them. *)
let partition_of parts s = if s < 0 then -1 else Intkey.mix s mod parts

let partition_ids parts sigs =
  if Array.length sigs >= 4096 then
    Exec.parallel_map (partition_of parts) sigs
  else Array.map (partition_of parts) sigs

let all _ = true

(* Run [kernel lselect rselect] over the whole input below the parallel
   cutoff, else once per partition on the pool (results in partition
   order). The select predicates restrict each side to the rows the
   call owns; unmatchable left rows are never selected. *)
let partitioned a b plan kernel =
  if not (Exec.pays_off (Relation.distinct_count a + Relation.distinct_count b))
  then [ kernel (fun i -> plan.lsig.(i) >= 0) all ]
  else begin
    let parts = Exec.jobs () in
    let lpart = partition_ids parts plan.lsig in
    let rpart = partition_ids parts plan.rsig in
    let out = Array.make parts None in
    Exec.parallel_for ~chunks:parts 0 parts (fun p ->
        out.(p) <- Some (kernel (fun i -> lpart.(i) = p) (fun j -> rpart.(j) = p)));
    List.filter_map Fun.id (Array.to_list out)
  end

(* ------------------------------------------------------------------ *)
(* count_join: |a ⋈ b| without materializing anything. Per key id the
   right side contributes a summed multiplicity; each left row adds
   count(left) * that sum. *)

let count_partition plan lselect rselect =
  let nb = Colrel.nrows plan.cb and na = Colrel.nrows plan.ca in
  let bcounts = Colrel.counts plan.cb and acounts = Colrel.counts plan.ca in
  let tab = Intkey.Itab.create (max 16 nb) in
  for j = 0 to nb - 1 do
    if rselect j then Intkey.Itab.add_count tab plan.rsig.(j) bcounts.(j)
  done;
  let total = ref Count.zero in
  for i = 0 to na - 1 do
    if lselect i then begin
      let group = Intkey.Itab.find tab plan.lsig.(i) ~default:0 in
      if group > 0 then
        total := Count.add_tracked !total (Count.mul acounts.(i) group)
    end
  done;
  !total

let count_join a b =
  Obs.span "join.count" @@ fun () ->
  let plan = make_plan a b in
  Obs.span "join.stream" @@ fun () ->
  partitioned a b plan (count_partition plan)
  |> List.fold_left Count.add_tracked Count.zero

(* ------------------------------------------------------------------ *)
(* natural_join: materialize the combined rows. Every output row embeds
   its full left row, and two right partners of one left row that agreed
   on the key and every extra column would be the same (distinct) right
   row — so outputs are distinct, across partitions too, and go straight
   through Relation.of_encoded with no grouping pass. *)

(* Chained right-row index for one partition: [heads] maps a key id to
   the most recently seen right row, [next] threads the rest. Probing
   walks newest-first; output order is canonicalized later, so chain
   order is irrelevant. *)
let build_chains plan rselect =
  let nb = Colrel.nrows plan.cb in
  let heads = Intkey.Itab.create (max 16 nb) in
  let next = Array.make (max 1 nb) (-1) in
  for j = 0 to nb - 1 do
    if rselect j then
      next.(j) <- Intkey.Itab.exchange heads plan.rsig.(j) j ~default:(-1)
  done;
  (heads, next)

let join_partition plan lselect rselect =
  let na = Colrel.nrows plan.ca in
  let acounts = Colrel.counts plan.ca and bcounts = Colrel.counts plan.cb in
  let la = Colrel.arity plan.ca in
  let ne = Array.length plan.right_extra in
  let heads, next = build_chains plan rselect in
  let acols = Array.init la (Colrel.col plan.ca) in
  let ecols = Array.map (Colrel.col plan.cb) plan.right_extra in
  let out = Array.init (la + ne) (fun _ -> Intkey.Ibuf.create 64) in
  let counts = Intkey.Ibuf.create 64 in
  let live = Obs.enabled () in
  for i = 0 to na - 1 do
    if lselect i then begin
      let j = ref (Intkey.Itab.find heads plan.lsig.(i) ~default:(-1)) in
      while !j >= 0 do
        for jc = 0 to la - 1 do
          Intkey.Ibuf.push out.(jc) acols.(jc).(i)
        done;
        for jc = 0 to ne - 1 do
          Intkey.Ibuf.push out.(la + jc) ecols.(jc).(!j)
        done;
        let cnt = Count.mul acounts.(i) bcounts.(!j) in
        if live then begin
          Obs.tick c_rows;
          if Count.is_saturated cnt then Obs.tick c_sat
        end;
        Intkey.Ibuf.push counts cnt;
        j := next.(!j)
      done
    end
  done;
  (Array.map Intkey.Ibuf.to_array out, Intkey.Ibuf.to_array counts)

let natural_join a b =
  Obs.span "join.stream" @@ fun () ->
  let plan = make_plan a b in
  let cols, counts =
    match partitioned a b plan (join_partition plan) with
    | [ piece ] -> piece
    | pieces ->
        ( Array.init (Schema.arity plan.combined) (fun jc ->
              Array.concat (List.map (fun (cs, _) -> cs.(jc)) pieces)),
          Array.concat (List.map snd pieces) )
  in
  Relation.of_encoded (Colrel.make ~schema:plan.combined ~cols ~counts)

(* ------------------------------------------------------------------ *)
(* join_project: the fused γ_group(a ⋈ b) — matches stream into an
   integer group-by keyed on the [group] columns of the (never
   materialized) combined row. It runs sequentially at every job count:
   group keys need not contain the join key, so a partition-parallel
   plan would hold one group table per partition plus a merged copy. *)

let join_project ~group a b =
  Obs.span "join.project" @@ fun () ->
  let combined = Schema.union (Relation.schema a) (Relation.schema b) in
  if not (Schema.subset group combined) then
    Errors.schema_errorf "join_project: %a not a subset of joined schema %a"
      Schema.pp group Schema.pp combined;
  let plan = make_plan a b in
  (* Each group column reads either the left row or the matched right
     row's extra columns. *)
  let la = Colrel.arity plan.ca in
  let gsrcs =
    Array.map
      (fun p ->
        if p < la then `Left (Colrel.col plan.ca p)
        else `Right (Colrel.col plan.cb plan.right_extra.(p - la)))
      (Schema.positions ~sub:group combined)
  in
  let g = Colrel.grouper ~arity:(Array.length gsrcs) 1024 in
  let key = Array.make (Array.length gsrcs) 0 in
  let acounts = Colrel.counts plan.ca and bcounts = Colrel.counts plan.cb in
  let live = Obs.enabled () in
  Obs.span "join.stream" (fun () ->
      let heads, next = build_chains plan all in
      for i = 0 to Colrel.nrows plan.ca - 1 do
        if plan.lsig.(i) >= 0 then begin
          let j = ref (Intkey.Itab.find heads plan.lsig.(i) ~default:(-1)) in
          while !j >= 0 do
            Array.iteri
              (fun jc src ->
                key.(jc) <-
                  (match src with `Left col -> col.(i) | `Right col -> col.(!j)))
              gsrcs;
            let cnt = Count.mul acounts.(i) bcounts.(!j) in
            if live then begin
              Obs.tick c_rows;
              if Count.is_saturated cnt then Obs.tick c_sat
            end;
            Colrel.grouper_add g key cnt;
            j := next.(!j)
          done
        end
      done);
  Obs.observe g_groups (Colrel.grouper_size g);
  Relation.of_encoded (Colrel.of_grouper ~schema:group g)

let join_all = function
  | [] -> invalid_arg "Join.join_all: empty list"
  | r :: rest -> List.fold_left natural_join r rest

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

