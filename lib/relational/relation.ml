(* A relation holds its sorted rows, its columnar encoding, or both;
   each is computed from the other on first use and kept. Kernel outputs
   start encoded only ({!of_encoded}), every other constructor starts
   with rows. The two need not agree on row order: rows are sorted by
   [Tuple.compare], the encoding's order is whatever built it. *)
type repr =
  | Rows of (Tuple.t * Count.t) array
  | Encoded of Colrel.t
  | Both of (Tuple.t * Count.t) array * Colrel.t

type t = { schema : Schema.t; mutable repr : repr }

let mk schema rows = { schema; repr = Rows rows }

let sort_rows rows = Array.sort (fun (a, _) (b, _) -> Tuple.compare a b) rows

let c_decoded = Obs.counter "relation.rows_decoded"

(* ------------------------------------------------------------------ *)
(* The columnar boundary. [encoded] interns the rows; [rows] decodes a
   kernel output and sorts it, the only canonicalization it needs since
   kernel outputs are distinct. Readers that see only counts answer from
   whichever side is present, so a kernel -> kernel chain never decodes. *)

let encoded r =
  match r.repr with
  | Encoded c | Both (_, c) -> c
  | Rows rows ->
      let c = Colrel.of_pairs r.schema rows in
      r.repr <- Both (rows, c);
      c

let rows r =
  match r.repr with
  | Rows rows | Both (rows, _) -> rows
  | Encoded c ->
      let rows = Colrel.decode_rows c in
      sort_rows rows;
      Obs.add c_decoded (Array.length rows);
      r.repr <- Both (rows, c);
      rows

let of_encoded c = { schema = Colrel.schema c; repr = Encoded c }

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

let cardinality r =
  match r.repr with
  | Rows rows | Both (rows, _) ->
      Array.fold_left (fun acc (_, c) -> Count.add_tracked acc c) Count.zero rows
  | Encoded c -> Array.fold_left Count.add_tracked Count.zero (Colrel.counts c)

let distinct_count r =
  match r.repr with
  | Rows rows | Both (rows, _) -> Array.length rows
  | Encoded c -> Colrel.nrows c

let is_empty r = distinct_count r = 0

(* Rows are sorted, so point lookups binary-search. *)
let find_index tup rows =
  let lo = ref 0 and hi = ref (Array.length rows - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Tuple.compare (fst rows.(mid)) tup in
    if c = 0 then begin
      res := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let mem tup r = find_index tup (rows r) >= 0

let count_of tup r =
  let rows = rows r in
  match find_index tup rows with -1 -> 0 | i -> snd rows.(i)

let fold f r init =
  Array.fold_left (fun acc (tup, cnt) -> f tup cnt acc) init (rows r)

let iter f r = Array.iter (fun (tup, cnt) -> f tup cnt) (rows r)

let c_projected = Obs.counter "relation.rows_projected"

(* Column selection is array indexing and the group-by runs on ids: no
   per-row tuple is built, and the result stays encoded. *)
let project target r =
  Obs.span "relation.project" @@ fun () ->
  Obs.add c_projected (distinct_count r);
  if not (Schema.subset target r.schema) then
    Errors.schema_errorf "project: %a is not a subset of %a" Schema.pp target
      Schema.pp r.schema;
  let positions = Schema.positions ~sub:target r.schema in
  of_encoded (Colrel.group_by ~schema:target positions (encoded r))

let filter pred r =
  let rows =
    Array.to_list (rows r) |> List.filter (fun (tup, _) -> pred r.schema tup)
  in
  mk r.schema (Array.of_list rows)

(* Map both sides of a relation, whichever are present. *)
let map_repr on_rows on_enc = function
  | Rows rows -> Rows (on_rows rows)
  | Encoded c -> Encoded (on_enc c)
  | Both (rows, c) -> Both (on_rows rows, on_enc c)

(* The same id columns under another schema or other counts. *)
let recode ~schema ~counts c =
  Colrel.make ~schema ~cols:(Array.init (Colrel.arity c) (Colrel.col c)) ~counts

(* Renaming changes neither the tuples nor their order. *)
let rename mapping r =
  let schema = Schema.rename mapping r.schema in
  let repr =
    map_repr Fun.id (fun c -> recode ~schema ~counts:(Colrel.counts c) c) r.repr
  in
  { schema; repr }

let scale factor r =
  if factor <= 0 then Errors.data_errorf "scale: non-positive factor %d" factor;
  let times cnt = Count.mul cnt factor in
  let repr =
    map_repr
      (Array.map (fun (t, cnt) -> (t, times cnt)))
      (fun c -> recode ~schema:r.schema ~counts:(Array.map times (Colrel.counts c)) c)
      r.repr
  in
  { schema = r.schema; repr }

let add ?(count = 1) tup r =
  check_row r.schema (tup, count);
  normalize r.schema ((tup, count) :: Array.to_list (rows r))

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
  let rows = rows r in
  match find_index tup rows with
  | -1 -> r
  | i ->
      let existing = snd rows.(i) in
      let remaining = if count >= existing then 0 else existing - count in
      let rows = Array.to_list rows in
      let rows =
        List.filteri (fun j _ -> j <> i) rows
        |> fun rest ->
        if remaining > 0 then (tup, remaining) :: rest else rest
      in
      normalize r.schema rows

(* The largest count is found in the integer domain; only the rows tied
   at it are decoded, and the smallest of them wins, as it does on the
   sorted rows. *)
let max_row r =
  match r.repr with
  | Rows rows | Both (rows, _) ->
      Array.fold_left
        (fun best (tup, cnt) ->
          match best with
          | None -> Some (tup, cnt)
          | Some (_, best_cnt) ->
              if cnt > best_cnt then Some (tup, cnt) else best)
        None rows
  | Encoded c ->
      let counts = Colrel.counts c in
      let top = Array.fold_left Count.max Count.zero counts in
      let best = ref None in
      Array.iteri
        (fun i cnt ->
          if cnt = top then
            let tup = Colrel.decode_row c i in
            match !best with
            | Some (b, _) when Tuple.compare b tup <= 0 -> ()
            | _ -> best := Some (tup, cnt))
        counts;
      !best

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
  Array.iter
    (fun (tup, _) -> Value.Tbl.replace seen (Tuple.get tup pos) ())
    (rows r);
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
    None (rows r)

let equal a b =
  Schema.equal a.schema b.schema
  && distinct_count a = distinct_count b
  && Array.for_all2
       (fun (t1, c1) (t2, c2) -> Tuple.equal t1 t2 && Count.equal c1 c2)
       (rows a) (rows b)

(* [Cq.instance] reorders every atom's columns, often to the order they
   are already stored in. Returning [r] unchanged then is exact and
   keeps whatever [r] has computed. *)
let reorder target r =
  if Schema.equal target r.schema then r
  else begin
    if not (Schema.equal_as_sets target r.schema) then
      Errors.schema_errorf "reorder: %a and %a hold different attributes"
        Schema.pp target Schema.pp r.schema;
    let positions = Schema.positions ~sub:target r.schema in
    normalize target
      (Array.to_list (rows r)
      |> List.map (fun (tup, cnt) -> (Tuple.project positions tup, cnt)))
  end

let equal_semantic a b =
  Schema.equal_as_sets a.schema b.schema && equal a (reorder a.schema b)

let pp ppf r =
  Format.fprintf ppf "@[<v>%a | cnt@," Schema.pp r.schema;
  Array.iter
    (fun (tup, cnt) -> Format.fprintf ppf "%a | %a@," Tuple.pp tup Count.pp cnt)
    (rows r);
  Format.fprintf ppf "@]"

let pp_summary ppf r =
  Format.fprintf ppf "%a: %d distinct, %a total" Schema.pp r.schema
    (distinct_count r) Count.pp (cardinality r)
