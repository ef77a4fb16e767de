(* Bag-semantics joins over the dictionary-encoded storage. Both sides
   are encoded once ({!Relation.encoded}, memoized; a kernel result
   already is), join keys become single ints — the raw dictionary id
   for one-column keys, a dense {!Intkey.Keydict} id for multi-column
   keys (built over the right side, probed by the left; a probe miss is
   a guaranteed non-match) — and the build/probe loops run over
   open-addressing int tables with no boxed value in sight. Results are
   handed back encoded ({!Relation.of_encoded}), in whatever order the
   probe loop produced them: the next kernel reads them as they are,
   and tuples are decoded and sorted only when a reader needs rows. *)

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

(* Key signatures for both sides (see {!Colrel.key_signatures}): the
   right side interns its keys, the left side looks them up (absent = no
   partner anywhere on the right). A schema-disjoint pair degenerates to
   the counted cross product via the constant signature 0. *)
let make_plan a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let common = Schema.inter sa sb in
  let combined = Schema.union sa sb in
  let ca = Relation.encoded a and cb = Relation.encoded b in
  let kd, rsig = Colrel.key_signatures cb (Schema.positions ~sub:common sb) in
  let lsig = Colrel.probe_signatures kd ca (Schema.positions ~sub:common sa) in
  let right_extra = Schema.positions ~sub:(Schema.diff sb sa) sb in
  { combined; ca; cb; lsig; rsig; right_extra }

(* ------------------------------------------------------------------ *)
(* natural_join: materialize the combined rows. Every output row embeds
   its full left row, and two right partners of one left row that agreed
   on the key and every extra column would be the same (distinct) right
   row — so outputs are distinct and go straight to Relation.of_encoded
   with no grouping pass. *)

(* Chained right-row index: [heads] maps a key id to the most recently
   seen right row, [next] threads the rest. Probing walks newest-first;
   no reader depends on the encoding's row order, so chain order is
   irrelevant. *)
let build_chains plan =
  let nb = Colrel.nrows plan.cb in
  let heads = Intkey.Itab.create (max 16 nb) in
  let next = Array.make (max 1 nb) (-1) in
  for j = 0 to nb - 1 do
    next.(j) <- Intkey.Itab.exchange heads plan.rsig.(j) j ~default:(-1)
  done;
  (heads, next)

let natural_join a b =
  Obs.span "join.stream" @@ fun () ->
  let plan = make_plan a b in
  let na = Colrel.nrows plan.ca in
  let acounts = Colrel.counts plan.ca and bcounts = Colrel.counts plan.cb in
  let la = Colrel.arity plan.ca in
  let ne = Array.length plan.right_extra in
  let heads, next = build_chains plan in
  let acols = Array.init la (Colrel.col plan.ca) in
  let ecols = Array.map (Colrel.col plan.cb) plan.right_extra in
  let out = Array.init (la + ne) (fun _ -> Intkey.Ibuf.create 64) in
  let counts = Intkey.Ibuf.create 64 in
  let live = Obs.enabled () in
  for i = 0 to na - 1 do
    if plan.lsig.(i) >= 0 then begin
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
  Relation.of_encoded
    (Colrel.make ~schema:plan.combined
       ~cols:(Array.map Intkey.Ibuf.to_array out)
       ~counts:(Intkey.Ibuf.to_array counts))

(* ------------------------------------------------------------------ *)
(* join_project: the fused γ_group(a ⋈ b) — matches stream into an
   integer group-by keyed on the [group] columns of the (never
   materialized) combined row. *)

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
      let heads, next = build_chains plan in
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
