type t = {
  schema : Schema.t;
  rows : (Tuple.t * Count.t) array;
  mutable enc : Colrel.t option;
      (* Memoized columnar encoding, filled on first use by a kernel.
         Per-value, not shared across derived relations (rename/scale/
         filter change what the encoding would be), so every constructor
         starts without one. *)
}

let mk schema rows = { schema; rows; enc = None }

let sort_rows rows = Array.sort (fun (a, _) (b, _) -> Tuple.compare a b) rows

(* ------------------------------------------------------------------ *)
(* The columnar boundary. [encoded] is the encode direction, memoized on
   the relation; its rows are [r.rows] in order, which is what lets
   {!Index.lookup} hand out the relation's own rows. [of_encoded] is the
   decode direction for kernel outputs, which are distinct but unsorted:
   sorting by [Tuple.compare] is the only canonicalization they need. *)

let encoded r =
  match r.enc with
  | Some c -> c
  | None ->
      let c = Colrel.of_pairs r.schema r.rows in
      r.enc <- Some c;
      c

let of_encoded c =
  let rows = Colrel.decode_rows c in
  sort_rows rows;
  mk (Colrel.schema c) rows

(* Merge duplicate tuples and sort: the canonical form all constructors
   funnel through. Sorting puts equal tuples next to each other, so one
   pass sums each run in place. Counts are positive on entry, so every
   sum is too. *)
let normalize schema pairs =
  let rows = Array.of_list pairs in
  sort_rows rows;
  let kept = ref 0 in
  for i = 0 to Array.length rows - 1 do
    let tup, cnt = rows.(i) in
    let last = !kept - 1 in
    if last >= 0 && Tuple.equal (fst rows.(last)) tup then
      rows.(last) <- (tup, Count.add_tracked (snd rows.(last)) cnt)
    else begin
      rows.(!kept) <- rows.(i);
      incr kept
    end
  done;
  mk schema (Array.sub rows 0 !kept)

let check_row schema (tup, cnt) =
  if Tuple.arity tup <> Schema.arity schema then
    Errors.data_errorf "row arity %d does not match schema %a"
      (Tuple.arity tup) Schema.pp schema;
  if cnt <= 0 then
    Errors.data_errorf "non-positive multiplicity %d for tuple %a" cnt
      Tuple.pp tup

let create ~schema pairs =
  List.iter (check_row schema) pairs;
  normalize schema pairs

let of_tuples ~schema tuples = create ~schema (List.map (fun t -> (t, 1)) tuples)

let of_rows ~schema rows =
  of_tuples ~schema (List.map Tuple.of_list rows)

let empty schema = mk schema [||]

let schema r = r.schema
let rows r = r.rows

let cardinality r =
  Array.fold_left (fun acc (_, c) -> Count.add acc c) Count.zero r.rows

let distinct_count r = Array.length r.rows
let is_empty r = Array.length r.rows = 0

(* Rows are sorted, so point lookups binary-search. *)
let find_index tup r =
  let lo = ref 0 and hi = ref (Array.length r.rows - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Tuple.compare (fst r.rows.(mid)) tup in
    if c = 0 then begin
      res := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let mem tup r = find_index tup r >= 0
let count_of tup r = match find_index tup r with -1 -> 0 | i -> snd r.rows.(i)

let fold f r init =
  Array.fold_left (fun acc (tup, cnt) -> f tup cnt acc) init r.rows

let iter f r = Array.iter (fun (tup, cnt) -> f tup cnt) r.rows

let c_projected = Obs.counter "relation.rows_projected"

(* Column selection is array indexing and the group-by runs on ids: no
   per-row tuple is built until the result decodes. *)
let project target r =
  Obs.span "relation.project" @@ fun () ->
  Obs.add c_projected (Array.length r.rows);
  if not (Schema.subset target r.schema) then
    Errors.schema_errorf "project: %a is not a subset of %a" Schema.pp target
      Schema.pp r.schema;
  let positions = Schema.positions ~sub:target r.schema in
  of_encoded (Colrel.group_by ~schema:target positions (encoded r))

let filter pred r =
  let rows =
    Array.to_list r.rows |> List.filter (fun (tup, _) -> pred r.schema tup)
  in
  mk r.schema (Array.of_list rows)

let rename mapping r = mk (Schema.rename mapping r.schema) r.rows

let scale factor r =
  if factor <= 0 then Errors.data_errorf "scale: non-positive factor %d" factor;
  mk r.schema (Array.map (fun (t, c) -> (t, Count.mul c factor)) r.rows)

let add ?(count = 1) tup r =
  check_row r.schema (tup, count);
  normalize r.schema ((tup, count) :: Array.to_list r.rows)

(* Clamp semantics: removing more copies than are stored empties the row
   and leaves the rest of the relation untouched. The alternative —
   raising — would make the naive sensitivity oracle's "delete one
   candidate" probes partial, so over-removal is defined, not an error;
   only a non-positive [count] is rejected. Pinned by
   test_relation's remove suite. *)
let remove ?(count = 1) tup r =
  if count <= 0 then
    Errors.data_errorf "remove: non-positive count %d for tuple %a" count
      Tuple.pp tup;
  match find_index tup r with
  | -1 -> r
  | i ->
      let existing = snd r.rows.(i) in
      let remaining = if count >= existing then 0 else existing - count in
      let rows = Array.to_list r.rows in
      let rows =
        List.filteri (fun j _ -> j <> i) rows
        |> fun rest ->
        if remaining > 0 then (tup, remaining) :: rest else rest
      in
      normalize r.schema rows

let max_row r =
  Array.fold_left
    (fun best (tup, cnt) ->
      match best with
      | None -> Some (tup, cnt)
      | Some (_, best_cnt) -> if cnt > best_cnt then Some (tup, cnt) else best)
    None r.rows

(* Only the largest group sum is needed, so the groups stay in the
   integer domain: nothing is decoded or sorted. *)
let max_frequency ~over r =
  if Schema.arity over = 0 then cardinality r
  else
    Colrel.group_by ~schema:over (Schema.positions ~sub:over r.schema) (encoded r)
    |> Colrel.counts
    |> Array.fold_left Count.max Count.zero

let active_domain attr r =
  let pos = Schema.index attr r.schema in
  let seen = Value.Tbl.create 64 in
  Array.iter (fun (tup, _) -> Value.Tbl.replace seen (Tuple.get tup pos) ()) r.rows;
  Value.Tbl.fold (fun v () acc -> v :: acc) seen []
  |> List.sort Value.compare

let min_value attr r =
  let pos = Schema.index attr r.schema in
  Array.fold_left
    (fun acc (tup, _) ->
      let v = Tuple.get tup pos in
      match acc with
      | Some m when Value.compare m v <= 0 -> acc
      | _ -> Some v)
    None r.rows

let equal a b =
  Schema.equal a.schema b.schema
  && Array.length a.rows = Array.length b.rows
  && Array.for_all2
       (fun (t1, c1) (t2, c2) -> Tuple.equal t1 t2 && Count.equal c1 c2)
       a.rows b.rows

(* [Cq.instance] reorders every atom's columns, often to the order they
   are already stored in. Rows are canonical, so returning [r]
   unchanged is exact and avoids re-sorting an already canonical
   relation (it also keeps the memoized encoding). *)
let reorder target r =
  if Schema.equal target r.schema then r
  else begin
    if not (Schema.equal_as_sets target r.schema) then
      Errors.schema_errorf "reorder: %a and %a hold different attributes"
        Schema.pp target Schema.pp r.schema;
    let positions = Schema.positions ~sub:target r.schema in
    normalize target
      (Array.to_list r.rows
      |> List.map (fun (tup, cnt) -> (Tuple.project positions tup, cnt)))
  end

let equal_semantic a b =
  Schema.equal_as_sets a.schema b.schema && equal a (reorder a.schema b)

let pp ppf r =
  Format.fprintf ppf "@[<v>%a | cnt@," Schema.pp r.schema;
  Array.iter
    (fun (tup, cnt) -> Format.fprintf ppf "%a | %a@," Tuple.pp tup Count.pp cnt)
    r.rows;
  Format.fprintf ppf "@]"

let pp_summary ppf r =
  Format.fprintf ppf "%a: %d distinct, %a total" Schema.pp r.schema
    (distinct_count r) Count.pp (cardinality r)
