(** Record store: segments, record identifiers and physical clustering.

    A {e segment} is ORION's clustering unit: a set of pages holding the
    instances of one or more classes.  The paper (§2.3) clusters a new
    instance with its first parent when both classes live in the same
    segment — the [?near] hint implements exactly that placement.

    Records larger than a page spill to a chained long-record
    representation whose I/O cost (one fetch per chain page) is visible
    in the disk counters. *)

type t

type segment_id = int

type rid = { segment : segment_id; page : int; slot : int }
(** [slot = -1] marks a long (page-chained) record. *)

val create : ?page_size:int -> ?pool_capacity:int -> unit -> t
(** Defaults: 4096-byte pages, 64-frame pool. *)

val disk : t -> Disk.t
(** The underlying simulated disk — exposed for WAL attachment
    (write observers, crash injection) and recovery replay; application
    code should go through records. *)

val pool : t -> Buffer_pool.t

val flush : t -> unit
(** Write every dirty buffered page to the disk (a checkpoint's
    "force" step; each write is seen by the disk's observer). *)

val new_segment : t -> segment_id

val segment_count : t -> int

val insert : t -> segment:segment_id -> ?near:rid -> bytes -> rid
(** Place a record; with [~near] (a record of the same segment), try the
    same page first so parent and component share a page when space
    permits. *)

val read : t -> rid -> bytes option

val update : t -> rid -> bytes -> rid
(** In-place when the new image fits the original allocation; otherwise
    the record moves and the new rid is returned. *)

val delete : t -> rid -> unit

val iter_segment : t -> segment_id -> (rid -> bytes -> unit) -> unit
(** Live records of the segment, in unspecified order, paying buffer
    traffic for each page touched. *)

val record_count : t -> segment_id -> int

val drop_cache : t -> unit
(** Flush and empty the buffer pool: the next traversal is cold. *)

val write_catalog : t -> bytes -> unit
(** Store a catalog blob (superblock role: schema + object directory
    for {!val-read_catalog} after reopening the database around this
    store).  Replaces any previous catalog. *)

val read_catalog : t -> bytes option

val catalog_page : t -> int option
(** First page of the catalog's long-record chain — exposed so a WAL
    base backup can journal the pointer ([Catalog_set]). *)

(** {1 Journal hook}

    Directory mutations (liveness, segments, the catalog pointer) are
    not page-resident, so the WAL cannot see them through the disk
    observer; the journal hook reports them as they happen.  Recovery
    re-applies them through the [restore_*]/{!forget_record} calls
    below, which deliberately bypass both pages and the journal. *)

type journal_op =
  | J_segment_new of segment_id
  | J_record_put of rid
  | J_record_delete of rid
  | J_catalog_set of int

val set_journal : t -> (journal_op -> unit) option -> unit

(** {1 Recovery support} *)

val restore_segment : t -> segment_id -> unit
(** Ensure segments [0..id] exist (replay of [J_segment_new]). *)

val restore_record : t -> rid -> unit
(** Mark the record live and remember its page for placement (replay of
    [J_record_put]; the page image itself arrives via physical page
    replay). *)

val forget_record : t -> rid -> unit
(** Drop liveness without touching the page image or the free list
    (replay of [J_record_delete]). *)

val restore_catalog : t -> int -> unit
(** Point the catalog at an already-materialized long-record chain
    (replay of [J_catalog_set]). *)

val compact_segment : t -> segment_id -> (rid * rid) list
(** Rewrite every live record of the segment into fresh pages (long
    records are left in place: they own their pages already), freeing
    the old pages for reuse.  Returns the (old, new) moves; callers
    holding RIDs must apply them. *)

(** {1 File serialization}

    The simulated disk plus the store's bookkeeping (segments, live
    records, free pages, catalog pointer) written to a real file in a
    hand-rolled binary format, so a database survives process restarts
    ([orion repl --db file]). *)

val save_file : t -> string -> unit
(** Atomic and durable ({!Durable_file.replace}): the image is written
    to a temporary sibling, fsynced and renamed over [path], then the
    directory is fsynced, so a crash mid-save leaves the previous
    snapshot and a finished save survives power loss.
    Format version 2: every page image is followed by its adler32
    checksum, verified by the offline checker. *)

val load_file : ?pool_capacity:int -> string -> t
(** @raise Failure on a missing or corrupt file.  Stored page checksums
    are {e not} verified here (the rename protocol rules out
    half-written files); [orion fsck] is the strict reader. *)

(** {1 Offline file image}

    The parsed-but-not-materialized form of a store file: what
    {!save_file} writes and {!load_file} builds a store from, exposed so
    the offline checker ({!Orion_analysis.Store_check}) can verify
    checksums and directory agreement against bytes, and so the
    corruption-injection tests can seed precise faults. *)

type file_image = {
  fi_page_size : int;
  fi_pages : bytes array;
  fi_checksums : int array option;
      (** stored per-page adler32; [None] for version-1 files *)
  fi_next_segment : int;
  fi_segments : (segment_id * int list * rid list) list;
      (** id, pages (most recently filled first), live records *)
  fi_free_pages : int list;
  fi_catalog_page : int option;
}

val page_checksum : bytes -> int
(** The checksum {!save_file} stores per page (adler32 of the image). *)

val file_image_of_store : t -> file_image
(** Flush the pool and snapshot the store (checksums freshly computed). *)

val read_file_image : string -> file_image
(** Parse a store file without building a store.
    @raise Failure on a missing or structurally corrupt file. *)

val write_file_image : file_image -> string -> unit
(** Serialize an image (atomically, like {!save_file}).  Checksums are
    written {e verbatim} — the corruption tests rely on being able to
    write an image whose checksums disagree with its pages. *)

val store_of_file_image : ?pool_capacity:int -> file_image -> t

val io_stats : t -> Disk.stats * Buffer_pool.stats

val reset_io_stats : t -> unit
