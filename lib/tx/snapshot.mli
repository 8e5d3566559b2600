(** Object snapshots for transaction undo.

    A snapshot deep-copies the mutable state of a set of instances
    (attribute values, reverse references — inline or external —,
    version/generic bookkeeping).  Restoring re-adds deleted objects
    and rolls every captured field back; objects created after the
    snapshot are untouched (the transaction layer removes those
    separately). *)

open Orion_core

type capture = {
  image : Instance.t;
      (** A private copy ({!Orion_core.Instance.copy}); never mutated
          after capture, so it stays the committed pre-image for as long
          as anyone holds it (the MVCC version store does). *)
  rrefs : Rref.t list;
}

type t

val take : Database.t -> Oid.t list -> t

val extend : t -> Database.t -> Oid.t list -> (Oid.t * capture) list
(** Capture more objects into the same snapshot (first capture of an
    OID wins, so a snapshot taken at operation start is preserved).
    Returns the captures newly taken by {e this} call — under strict
    2PL these are committed pre-images, which is what the transaction
    manager feeds the MVCC version store as chain bases. *)

val restore : t -> Database.t -> unit

val captured : t -> Oid.t list

val is_empty : t -> bool
(** Nothing captured yet. *)
