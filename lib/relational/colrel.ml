(* Dictionary-encoded columnar relations: the storage format of every
   join and group-by kernel. A relation becomes one [int array] per
   attribute (cells are {!Dict} ids) plus a parallel multiplicity array,
   so the kernels compare, hash and move nothing but immediate ints;
   values are decoded back to [Value.t] ({!decode_rows}) only when a
   reader of a {!Relation.t} needs its rows.

   The row set of a [t] is distinct (one entry per distinct tuple):
   constructors either start from normalized relation rows or group
   before building. *)

type t = {
  schema : Schema.t;
  nrows : int;
  cols : int array array; (* arity columns of length nrows, column-major *)
  counts : Count.t array; (* length nrows *)
}

let schema t = t.schema
let nrows t = t.nrows
let col t j = t.cols.(j)
let counts t = t.counts
let arity t = Array.length t.cols

let make ~schema ~cols ~counts =
  let nrows = Array.length counts in
  assert (Array.for_all (fun c -> Array.length c = nrows) cols);
  assert (Array.length cols = Schema.arity schema);
  { schema; nrows; cols; counts }

(* Encode rows as handed over: the input is normalized relation rows,
   so the row set is already distinct. *)
let of_pairs schema (pairs : (Tuple.t * Count.t) array) =
  let arity = Schema.arity schema in
  let n = Array.length pairs in
  let cols = Array.init arity (fun _ -> Array.make n 0) in
  let counts = Array.make n 0 in
  for i = 0 to n - 1 do
    let tup, cnt = pairs.(i) in
    for j = 0 to arity - 1 do
      cols.(j).(i) <- Dict.intern (Tuple.get tup j)
    done;
    counts.(i) <- cnt
  done;
  { schema; nrows = n; cols; counts }

(* ------------------------------------------------------------------ *)
(* Per-row key signatures: one int per row for the key columns at
   [positions]. An arity-0 key puts every row under signature 0, arity 1
   uses the raw dictionary id (the column itself, shared), and wider keys
   go through [find], a Keydict lookup over the key vector. *)

let signatures find t positions =
  let k = Array.length positions in
  if k = 0 then Array.make t.nrows 0
  else if k = 1 then t.cols.(positions.(0))
  else begin
    let srcs = Array.map (fun p -> t.cols.(p)) positions in
    let scratch = Array.make k 0 in
    Array.init t.nrows (fun i ->
        for j = 0 to k - 1 do
          scratch.(j) <- srcs.(j).(i)
        done;
        find scratch)
  end

let key_signatures t positions =
  let k = Array.length positions in
  let kd =
    if k >= 2 then Some (Intkey.Keydict.create ~arity:k t.nrows) else None
  in
  let intern key = Intkey.Keydict.lookup_or_add (Option.get kd) key in
  (kd, signatures intern t positions)

let probe_signatures kd t positions =
  let lookup key = Intkey.Keydict.lookup (Option.get kd) key in
  signatures lookup t positions

let decode_row t i =
  Array.init (arity t) (fun j -> Dict.value t.cols.(j).(i))

let decode_rows t =
  Array.init t.nrows (fun i -> (decode_row t i, t.counts.(i)))

(* ------------------------------------------------------------------ *)
(* Integer-domain group-by: the γ kernel. A grouper accumulates
   (key, count) pairs keyed by an int vector of [garity] components,
   specialized per arity: nullary groups are a single total, unary
   groups key an Itab by the raw id, wider groups intern through a
   Keydict with a parallel dense sum buffer. Sums go through
   {!Count.add_tracked}. *)

type grouper = {
  garity : int;
  kd : Intkey.Keydict.t option; (* Some iff garity >= 2 *)
  tab : Intkey.Itab.t; (* garity = 1: id -> summed count *)
  sums : Intkey.Ibuf.t; (* garity >= 2: dense key id -> summed count *)
  mutable nullary : Count.t; (* garity = 0 *)
  mutable any : bool; (* garity = 0: saw at least one row *)
}

let grouper ~arity hint =
  {
    garity = arity;
    kd =
      (if arity >= 2 then Some (Intkey.Keydict.create ~arity hint) else None);
    tab = Intkey.Itab.create (if arity = 1 then max 16 hint else 16);
    sums = Intkey.Ibuf.create (if arity >= 2 then max 16 hint else 8);
    nullary = Count.zero;
    any = false;
  }

let grouper_add g key cnt =
  if g.garity = 0 then begin
    g.any <- true;
    g.nullary <- Count.add_tracked g.nullary cnt
  end
  else if g.garity = 1 then Intkey.Itab.add_count g.tab key.(0) cnt
  else begin
    let id = Intkey.Keydict.lookup_or_add (Option.get g.kd) key in
    if id = Intkey.Ibuf.length g.sums then Intkey.Ibuf.push g.sums cnt
    else
      Intkey.Ibuf.set g.sums id
        (Count.add_tracked (Intkey.Ibuf.get g.sums id) cnt)
  end

let grouper_size g =
  if g.garity = 0 then if g.any then 1 else 0
  else if g.garity = 1 then Intkey.Itab.length g.tab
  else Intkey.Keydict.length (Option.get g.kd)

let of_grouper ~schema g =
  let n = grouper_size g in
  if g.garity = 0 then
    { schema; nrows = n; cols = [||]; counts = Array.make n g.nullary }
  else if g.garity = 1 then begin
    let ids = Array.make n 0 and counts = Array.make n 0 in
    let row = ref 0 in
    Intkey.Itab.iter
      (fun id c ->
        ids.(!row) <- id;
        counts.(!row) <- c;
        incr row)
      g.tab;
    { schema; nrows = n; cols = [| ids |]; counts }
  end
  else
    let kd = Option.get g.kd in
    {
      schema;
      nrows = n;
      cols =
        Array.init g.garity (fun j ->
            Array.init n (fun id -> Intkey.Keydict.get kd id j));
      counts = Intkey.Ibuf.to_array g.sums;
    }

let group_by ~schema positions t =
  let k = Array.length positions in
  let srcs = Array.map (fun p -> t.cols.(p)) positions in
  (* The row count overstates the groups whenever keys repeat, and the
     grouper grows on demand: start small. *)
  let g = grouper ~arity:k (min t.nrows 1024) in
  let key = Array.make k 0 in
  for i = 0 to t.nrows - 1 do
    for j = 0 to k - 1 do
      key.(j) <- srcs.(j).(i)
    done;
    grouper_add g key t.counts.(i)
  done;
  of_grouper ~schema g
