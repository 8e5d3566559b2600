(* The benchmark's CAD dataset: 256 Designs x 8 Assemblies x 16 Parts,
   every level its own class and every composite reference exclusive
   and dependent.  One class per level keeps two writers on different
   Designs from colliding on class-level intention locks.  The shape
   is fixed; the seed picks the attribute values. *)

open Orion_core
module Eval = Orion_dsl.Eval
module Store = Orion_storage.Store

let n_designs = 256
let assemblies_per_design = 8
let parts_per_assembly = 16

(* What [components-of] returns for an untouched Design. *)
let components_per_design = assemblies_per_design * (1 + parts_per_assembly)

let n_objects = n_designs * (1 + components_per_design)

let schema =
  {|
(make-class 'Part :attributes ((Name :domain String) (Grams :domain Integer)))
(make-class 'Assembly :attributes (
  (Name :domain String)
  (Parts :domain (set-of Part) :composite true :exclusive true :dependent true)))
(make-class 'Design :attributes (
  (Name :domain String)
  (Assemblies :domain (set-of Assembly) :composite true :exclusive true
    :dependent true)))
|}

type t = {
  designs : Oid.t array;
  assemblies : Oid.t array array;  (* [d].(a): Assembly [a] of Design [d] *)
}

(* Build the dataset in a fresh database and save it to [path]. *)
let generate ~seed path =
  let rng = Random.State.make [| seed; 0xCAD |] in
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema : Eval.v list);
  let db = Eval.database env in
  let make ~cls ?parents name attrs =
    Object_manager.create db ~cls ?parents
      ~attrs:(("Name", Value.Str name) :: attrs)
      ()
  in
  let designs =
    Array.init n_designs (fun d -> make ~cls:"Design" (Printf.sprintf "design-%d" d) [])
  in
  let assemblies =
    Array.mapi
      (fun d design ->
        Array.init assemblies_per_design (fun a ->
            let asm =
              make ~cls:"Assembly"
                ~parents:[ (design, "Assemblies") ]
                (Printf.sprintf "asm-%d-%d" d a) []
            in
            for p = 0 to parts_per_assembly - 1 do
              ignore
                (make ~cls:"Part"
                   ~parents:[ (asm, "Parts") ]
                   (Printf.sprintf "part-%d-%d-%d" d a p)
                   [ ("Grams", Value.Int (1 + Random.State.int rng 10_000)) ]
                  : Oid.t)
            done;
            asm))
      designs
  in
  Persist.save db;
  Store.save_file (Database.store db) path;
  { designs; assemblies }

let load path = Persist.load (Store.load_file path)

let parts_of db asm =
  match Object_manager.read_attr db asm "Parts" with
  | Value.VSet xs -> List.length xs
  | Value.Null -> 0
  | v -> failwith ("Parts holds " ^ Value.to_string v)

(* Reopen a recovered store and check it against the acknowledged
   appends: every Assembly holds its 16 Parts plus exactly the appends
   acknowledged to it, and nothing else exists.  [None] when it does. *)
let verify t path ~appended =
  let db = load path in
  let acked = Array.fold_left (Array.fold_left ( + )) 0 appended in
  let expected = n_objects + acked in
  let bad = ref [] in
  Array.iteri
    (fun d row ->
      Array.iteri
        (fun a asm ->
          let want = parts_per_assembly + appended.(d).(a) in
          let got = parts_of db asm in
          if got <> want then
            bad := Printf.sprintf "asm-%d-%d holds %d parts, expected %d" d a got want
                   :: !bad)
        row)
    t.assemblies;
  match (Database.count db, !bad) with
  | n, [] when n = expected -> None
  | n, [] -> Some (Printf.sprintf "%d objects, expected %d" n expected)
  | _, first :: rest ->
      Some (Printf.sprintf "%s (%d assemblies wrong)" first (1 + List.length rest))
