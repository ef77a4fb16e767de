(* The storage layer: the dictionary-encoded kernels checked against
   the nested-loop row reference in [Reference] (the "row" side of every
   "columnar = row" property), TSens checked against the naive oracle on
   top of them, plus units for the dictionary, the columnar boundary,
   the integer-key tables and the hash-quality regressions that the
   open-addressing tables lean on. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity

(* ------------------------------------------------------------------ *)
(* Kernel equivalence properties *)

(* Schema-disjoint from every generated relation: joining it is the
   counted cross product. *)
let disjoint =
  Relation.create
    ~schema:(Schema.of_list [ "Z1"; "Z2" ])
    [ (Tuple.of_list [ Value.Int 1; Value.Int 2 ], 2);
      (Tuple.of_list [ Value.Int 3; Value.Int 4 ], 1) ]

let prop_natural_join_modes =
  Tgen.qtest "natural_join columnar = row" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      List.for_all
        (fun (a, b) ->
          Reference.matches (Join.natural_join a b)
            (Reference.natural_join a b))
        [ (a, b); (a, disjoint) ])

let join_project_matches ~group a b =
  Reference.matches (Join.join_project ~group a b)
    (Reference.join_project ~group a b)

let prop_join_project_modes =
  Tgen.qtest "join_project columnar = row" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      join_project_matches
        ~group:(Schema.inter (Relation.schema a) (Relation.schema b))
        a b)

(* The widest group: every joined row is a group of its own. *)
let prop_join_project_wide_group =
  Tgen.qtest "join_project full-schema group columnar = row"
    Tgen.joinable_pair_gen Tgen.print_relation_pair (fun (a, b) ->
      join_project_matches
        ~group:(Schema.union (Relation.schema a) (Relation.schema b))
        a b)

let prop_project_modes =
  Tgen.qtest "project columnar = row" Tgen.relation_gen Tgen.print_relation
    (fun r ->
      let target =
        match Schema.attrs (Relation.schema r) with
        | first :: _ -> Schema.of_list [ first ]
        | [] -> Schema.empty
      in
      Reference.matches (Relation.project target r)
        (Reference.project target r))

(* ------------------------------------------------------------------ *)
(* Sensitivity: TSens over the kernels equals the naive oracle *)

let path_cq = Cq.make ~name:"qstore" [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]

let path_db_gen =
  QCheck2.Gen.(
    Tgen.relation_of_schema_gen (Schema.of_list [ "A"; "B" ]) >>= fun r ->
    Tgen.relation_of_schema_gen (Schema.of_list [ "B"; "C" ]) >>= fun s ->
    return (Database.of_list [ ("R", r); ("S", s) ]))

let print_db db =
  Database.fold
    (fun name rel acc ->
      acc ^ Format.asprintf "%s:@.%a@." name Relation.pp rel)
    db ""

(* Same LS and per-relation maxima as the naive oracle, and the witness
   attains the LS under the oracle's own tuple sensitivity. *)
let prop_tsens_naive =
  Tgen.qtest ~count:60 "tsens = naive" path_db_gen print_db (fun db ->
      let naive = Naive.local_sensitivity path_cq db in
      let r = Tsens.local_sensitivity path_cq db in
      Count.equal r.local_sensitivity naive.local_sensitivity
      && r.per_relation = naive.per_relation
      &&
      match r.witness with
      | None -> r.local_sensitivity = 0
      | Some w ->
          Naive.tuple_sensitivity path_cq db w.relation w.tuple
          = r.local_sensitivity)

(* ------------------------------------------------------------------ *)
(* Dictionary units *)

let v_int n = Value.Int n
let v_str s = Value.Str s

let test_dict_intern_stable () =
  let id1 = Dict.intern (v_str "storage-test-a") in
  let id2 = Dict.intern (v_str "storage-test-a") in
  Alcotest.(check int) "same id on re-intern" id1 id2;
  Alcotest.(check bool)
    "distinct values, distinct ids" true
    (Dict.intern (v_str "storage-test-b") <> id1);
  Alcotest.(check bool)
    "decode inverts intern" true
    (Value.equal (v_str "storage-test-a") (Dict.value id1))

let test_dict_find_opt () =
  let id = Dict.intern (v_int 123456) in
  Alcotest.(check (option int)) "present" (Some id) (Dict.find_opt (v_int 123456));
  Alcotest.(check (option int))
    "absent without interning" None
    (Dict.find_opt (v_str "storage-test-never-interned"));
  Alcotest.(check (option int))
    "still absent" None
    (Dict.find_opt (v_str "storage-test-never-interned"))

(* Typed distinctly from equal-looking values of other constructors. *)
let test_dict_constructors_distinct () =
  let i = Dict.intern (v_int 1) in
  let s = Dict.intern (v_str "1") in
  let b = Dict.intern (Value.Bool true) in
  Alcotest.(check bool) "int/str" true (i <> s);
  Alcotest.(check bool) "int/bool" true (i <> b);
  Alcotest.(check bool) "str/bool" true (s <> b)

(* ------------------------------------------------------------------ *)
(* Columnar boundary *)

let prop_encode_roundtrip =
  Tgen.qtest "of_encoded (encoded r) = r" Tgen.relation_gen
    Tgen.print_relation (fun r ->
      Relation.equal r (Relation.of_encoded (Relation.encoded r)))

let prop_index_modes =
  Tgen.qtest "index probes columnar = row" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      let key = Schema.inter (Relation.schema a) (Relation.schema b) in
      let positions = Schema.positions ~sub:key (Relation.schema a) in
      (* Probe with every key of [a], present or not in [b]. *)
      let keys = List.map (fun (t, _) -> Tuple.project positions t) (Reference.rows a) in
      let idx = Index.build ~key b in
      List.for_all
        (fun k ->
          Count.equal (Index.group_count idx k) (Reference.group_count ~key b k))
        keys)

(* ------------------------------------------------------------------ *)
(* Readers that answer from the encoding: on an undecoded kernel result
   they must report what they report once the rows are decoded, and what
   the reference computes from its bag. Counts drawn from {1, 2} make
   ties for the largest count common, so [max_row]'s tie-break (the
   smallest tuple) is exercised. *)

(* Everything the order-free readers report, in one comparable value. *)
let readings ~over r =
  let cardinality = Relation.cardinality r in
  let distinct = Relation.distinct_count r in
  let empty = Relation.is_empty r in
  let best = Relation.max_row r in
  let mf = List.map (fun o -> Relation.max_frequency ~over:o r) over in
  let scaled =
    List.map
      (fun k -> List.sort compare (Reference.rows (Relation.scale k r)))
      [ 2; Count.max_count / 2 ]
  in
  (cardinality, distinct, empty, best, mf, scaled)

let reference_readings ~over (schema, bag) =
  let best =
    List.fold_left
      (fun best (t, c) ->
        match best with
        | Some (bt, bc) when bc > c || (bc = c && Tuple.compare bt t <= 0) ->
            best
        | _ -> Some (t, c))
      None bag
  in
  let mf =
    List.map
      (fun o ->
        Reference.project_rows o schema bag
        |> List.fold_left (fun acc (_, c) -> Count.max acc c) Count.zero)
      over
  in
  let scaled =
    List.map
      (fun k -> List.sort compare (List.map (fun (t, c) -> (t, Count.mul c k)) bag))
      [ 2; Count.max_count / 2 ]
  in
  ( List.fold_left (fun acc (_, c) -> Count.add acc c) Count.zero bag,
    List.length bag,
    bag = [],
    best,
    mf,
    scaled )

let readers_agree r reference =
  let schema = Relation.schema r in
  let over =
    Schema.empty :: schema
    :: List.map (fun a -> Schema.of_list [ a ]) (Schema.attrs schema)
  in
  let undecoded = readings ~over r in
  ignore (Relation.rows r);
  let decoded = readings ~over r in
  undecoded = decoded && decoded = reference_readings ~over reference

let prop_encoded_readers =
  Tgen.qtest "encoded readers = decoded = reference"
    (Tgen.joinable_pair_of ~max_count:2 ())
    Tgen.print_relation_pair (fun (a, b) ->
      let group = Schema.inter (Relation.schema a) (Relation.schema b) in
      let target = Schema.of_list [ List.hd (Schema.attrs (Relation.schema a)) ] in
      readers_agree (Join.join_project ~group a b)
        (Reference.join_project ~group a b)
      && readers_agree (Relation.project target a) (Reference.project target a))

(* ------------------------------------------------------------------ *)
(* Hash quality regressions *)

let test_intkey_mix_spread () =
  let parts = 8 and n = 4096 in
  let counts = Array.make parts 0 in
  for i = 0 to n - 1 do
    let b = Intkey.mix i mod parts in
    counts.(b) <- counts.(b) + 1
  done;
  let mean = float_of_int n /. float_of_int parts in
  Alcotest.(check bool)
    "mixed sequential ids spread evenly" true
    (Array.for_all (fun c -> float_of_int c <= 2.0 *. mean) counts);
  Alcotest.(check bool)
    "mix is non-negative" true
    (List.for_all (fun x -> Intkey.mix x >= 0) [ 0; 1; max_int; -1; -max_int ])

let test_value_hash_constructors () =
  Alcotest.(check bool)
    "equal values hash equal" true
    (Value.hash (v_int 42) = Value.hash (v_int 42));
  (* Not guaranteed for arbitrary hashes, but deterministic here: the
     constructor tags must keep these common collision shapes apart. *)
  Alcotest.(check bool)
    "Int 1 vs Str \"1\"" true
    (Value.hash (v_int 1) <> Value.hash (v_str "1"));
  Alcotest.(check bool)
    "Int 0 vs Bool false" true
    (Value.hash (v_int 0) <> Value.hash (Value.Bool false))

(* ------------------------------------------------------------------ *)
(* Itab / Keydict units *)

let test_itab_basics () =
  let t = Intkey.Itab.create 4 in
  Alcotest.(check int) "absent" (-1) (Intkey.Itab.find t 5 ~default:(-1));
  (* Grow well past the initial hint. *)
  for k = 0 to 99 do
    Intkey.Itab.set t k (k * k)
  done;
  Alcotest.(check int) "length" 100 (Intkey.Itab.length t);
  Alcotest.(check int) "find after grow" 81 (Intkey.Itab.find t 9 ~default:0);
  Alcotest.(check int) "exchange returns old" 81
    (Intkey.Itab.exchange t 9 7 ~default:0);
  Alcotest.(check int) "exchange stored new" 7 (Intkey.Itab.find t 9 ~default:0);
  let sum = ref 0 in
  Intkey.Itab.iter (fun _ v -> sum := !sum + v) t;
  let expected =
    List.fold_left ( + ) 0 (List.init 100 (fun k -> k * k)) - 81 + 7
  in
  Alcotest.(check int) "iter visits everything" expected !sum

let test_itab_add_count_saturates () =
  let t = Intkey.Itab.create 4 in
  Intkey.Itab.add_count t 1 (Count.max_count - 1);
  Intkey.Itab.add_count t 1 5;
  Alcotest.(check bool)
    "saturates like Count.add" true
    (Count.is_saturated (Intkey.Itab.find t 1 ~default:0))

let test_keydict_basics () =
  let kd = Intkey.Keydict.create ~arity:2 4 in
  let id_ab = Intkey.Keydict.lookup_or_add kd [| 1; 2 |] in
  let id_ba = Intkey.Keydict.lookup_or_add kd [| 2; 1 |] in
  Alcotest.(check bool) "order matters" true (id_ab <> id_ba);
  Alcotest.(check int) "stable" id_ab (Intkey.Keydict.lookup_or_add kd [| 1; 2 |]);
  Alcotest.(check int) "lookup finds" id_ab (Intkey.Keydict.lookup kd [| 1; 2 |]);
  Alcotest.(check int) "lookup misses" (-1) (Intkey.Keydict.lookup kd [| 9; 9 |]);
  Alcotest.(check int) "component recall" 2 (Intkey.Keydict.get kd id_ab 1);
  (* The caller's scratch array is copied, not captured. *)
  let scratch = [| 5; 6 |] in
  let id = Intkey.Keydict.lookup_or_add kd scratch in
  scratch.(0) <- 99;
  Alcotest.(check int) "scratch mutation harmless" id
    (Intkey.Keydict.lookup kd [| 5; 6 |]);
  Alcotest.(check int) "length" 3 (Intkey.Keydict.length kd)

let () =
  Alcotest.run "storage"
    [
      ( "equivalence",
        [
          prop_natural_join_modes;
          prop_join_project_modes;
          prop_join_project_wide_group;
          prop_project_modes;
        ] );
      ("sensitivity", [ prop_tsens_naive ]);
      ( "dict",
        [
          Alcotest.test_case "intern stable" `Quick test_dict_intern_stable;
          Alcotest.test_case "find_opt" `Quick test_dict_find_opt;
          Alcotest.test_case "constructors distinct" `Quick
            test_dict_constructors_distinct;
        ] );
      ( "boundary",
        [ prop_encode_roundtrip; prop_index_modes; prop_encoded_readers ] );
      ( "hashing",
        [
          Alcotest.test_case "intkey mix spread" `Quick test_intkey_mix_spread;
          Alcotest.test_case "value hash constructors" `Quick
            test_value_hash_constructors;
        ] );
      ( "intkey",
        [
          Alcotest.test_case "itab basics" `Quick test_itab_basics;
          Alcotest.test_case "itab add_count saturates" `Quick
            test_itab_add_count_saturates;
          Alcotest.test_case "keydict basics" `Quick test_keydict_basics;
        ] );
    ]
