(* The index is built in the integer domain: the source is encoded once
   ({!Relation.encoded}), the key collapses to one int signature per row
   ({!Colrel.key_signatures}), and the groups are chained row ids in an
   open-addressing table. A probe interns nothing: each probe value is
   looked up in the dictionary, and any absent value proves the key
   matches no row. Row ids of the encoding are positions in the source's
   [Relation.rows], so [lookup] hands out the relation's own rows —
   nothing is decoded and [group_count] never touches a tuple. *)

let c_builds = Obs.counter "index.builds"
let c_probes = Obs.counter "index.probes"
let c_rows = Obs.counter "index.rows_indexed"
let g_group = Obs.gauge "index.max_group_rows"

type t = {
  key : Schema.t;
  rows : (Tuple.t * Count.t) array; (* the source's rows, in encoding order *)
  kd : Intkey.Keydict.t option; (* Some iff key arity >= 2 *)
  heads : Intkey.Itab.t; (* signature -> newest row id *)
  next : int array; (* row id -> older row id with same signature *)
  counts : Intkey.Itab.t; (* signature -> summed count *)
}

let build ~key rel =
  Obs.span "index.build" @@ fun () ->
  let source = Relation.schema rel in
  if not (Schema.subset key source) then
    Errors.schema_errorf "index key %a not a subset of %a" Schema.pp key
      Schema.pp source;
  let crel = Relation.encoded rel in
  let n = Colrel.nrows crel in
  let kd, sigs =
    Colrel.key_signatures crel (Schema.positions ~sub:key source)
  in
  let heads = Intkey.Itab.create (max 16 n) in
  let next = Array.make (max 1 n) (-1) in
  let counts = Intkey.Itab.create (max 16 n) in
  let row_counts = Colrel.counts crel in
  for i = 0 to n - 1 do
    next.(i) <- Intkey.Itab.exchange heads sigs.(i) i ~default:(-1);
    Intkey.Itab.add_count counts sigs.(i) row_counts.(i)
  done;
  if Obs.enabled () then begin
    Obs.tick c_builds;
    Obs.add c_rows n;
    Intkey.Itab.iter
      (fun _ head ->
        let len = ref 0 and i = ref head in
        while !i >= 0 do
          incr len;
          i := next.(!i)
        done;
        Obs.observe g_group !len)
      heads
  end;
  { key; rows = Relation.rows rel; kd; heads; next; counts }

(* Signature of a probe tuple, or -1 when some probe value was never
   interned (then no indexed row can match it). Probing never interns:
   the dictionary only grows when relations are encoded. *)
let probe_sig t k =
  let arity = Schema.arity t.key in
  if arity = 0 then 0
  else if arity = 1 then (
    match Dict.find_opt (Tuple.get k 0) with Some id -> id | None -> -1)
  else begin
    let ids = Array.make arity 0 in
    let ok = ref true in
    for j = 0 to arity - 1 do
      match Dict.find_opt (Tuple.get k j) with
      | Some id -> ids.(j) <- id
      | None -> ok := false
    done;
    if not !ok then -1 else Intkey.Keydict.lookup (Option.get t.kd) ids
  end

(* The chain runs newest (highest row id) first, so filling the result
   from the back returns the group in relation order. *)
let lookup t k =
  Obs.tick c_probes;
  let s = probe_sig t k in
  let head = if s < 0 then -1 else Intkey.Itab.find t.heads s ~default:(-1) in
  let len = ref 0 and i = ref head in
  while !i >= 0 do
    incr len;
    i := t.next.(!i)
  done;
  let out = Array.make !len ([||], Count.zero) in
  let i = ref head in
  for slot = !len - 1 downto 0 do
    out.(slot) <- t.rows.(!i);
    i := t.next.(!i)
  done;
  out

let group_count t k =
  Obs.tick c_probes;
  let s = probe_sig t k in
  if s < 0 then 0 else Intkey.Itab.find t.counts s ~default:0

let max_group_count t =
  Intkey.Itab.fold (fun _ cnt acc -> Count.max cnt acc) t.counts Count.zero
