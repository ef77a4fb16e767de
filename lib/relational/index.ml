(* The index is built in the integer domain: the source is encoded once
   ({!Relation.encoded}), the key collapses to one int signature per row
   ({!Colrel.key_signatures}), and the groups are summed counts in an
   open-addressing table. A probe interns nothing: each probe value is
   looked up in the dictionary, and any absent value proves the key
   matches no row. Nothing is decoded. *)

let c_builds = Obs.counter "index.builds"
let c_probes = Obs.counter "index.probes"
let c_rows = Obs.counter "index.rows_indexed"
let g_group = Obs.gauge "index.max_group_rows"

type t = {
  key : Schema.t;
  kd : Intkey.Keydict.t option; (* Some iff key arity >= 2 *)
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
  let counts = Intkey.Itab.create (max 16 n) in
  let row_counts = Colrel.counts crel in
  for i = 0 to n - 1 do
    Intkey.Itab.add_count counts sigs.(i) row_counts.(i)
  done;
  if Obs.enabled () then begin
    Obs.tick c_builds;
    Obs.add c_rows n;
    let group_rows = Intkey.Itab.create (max 16 n) in
    Array.iter (fun s -> Intkey.Itab.add_count group_rows s 1) sigs;
    Intkey.Itab.iter (fun _ len -> Obs.observe g_group len) group_rows
  end;
  { key; kd; counts }

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

let group_count t k =
  Obs.tick c_probes;
  let s = probe_sig t k in
  if s < 0 then 0 else Intkey.Itab.find t.counts s ~default:0
