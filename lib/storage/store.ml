type segment_id = int

type rid = { segment : segment_id; page : int; slot : int }

type segment = {
  mutable pages : int list;  (* most recently filled first *)
  live : (rid, unit) Hashtbl.t;
}

type journal_op =
  | J_segment_new of segment_id
  | J_record_put of rid
  | J_record_delete of rid
  | J_catalog_set of int

type t = {
  disk : Disk.t;
  pool : Buffer_pool.t;
  segments : (segment_id, segment) Hashtbl.t;
  mutable next_segment : segment_id;
  mutable free_pages : int list;  (* recycled long-record pages *)
  mutable catalog_page : int option;
  mutable journal : (journal_op -> unit) option;
}

let long_slot = -1

let set_journal t f = t.journal <- f

let journal t op = match t.journal with Some f -> f op | None -> ()

let create ?(page_size = 4096) ?(pool_capacity = 64) () =
  if page_size > 32768 then invalid_arg "Store.create: page_size > 32768";
  let disk = Disk.create ~page_size in
  {
    disk;
    pool = Buffer_pool.create ~capacity:pool_capacity disk;
    segments = Hashtbl.create 16;
    next_segment = 0;
    free_pages = [];
    catalog_page = None;
    journal = None;
  }

let disk t = t.disk
let pool t = t.pool

let new_segment t =
  let id = t.next_segment in
  t.next_segment <- id + 1;
  Hashtbl.replace t.segments id { pages = []; live = Hashtbl.create 64 };
  journal t (J_segment_new id);
  id

let segment_count t = t.next_segment

let segment t id =
  match Hashtbl.find_opt t.segments id with
  | Some seg -> seg
  | None -> invalid_arg (Printf.sprintf "Store: unknown segment %d" id)

let alloc_page t =
  match t.free_pages with
  | page :: rest ->
      t.free_pages <- rest;
      page
  | [] -> Disk.alloc t.disk

(* Long records: chain of whole pages, each laid out as
   [next:u32 le, 0xffffffff = none][len:u16][chunk]. *)

let no_next = 0xffffffff

let chunk_capacity t = Disk.page_size t.disk - 6

let write_long t data =
  let cap = chunk_capacity t in
  let total = Bytes.length data in
  let npages = max 1 ((total + cap - 1) / cap) in
  let pages = List.init npages (fun _ -> alloc_page t) in
  let rec fill offset = function
    | [] -> ()
    | page_no :: rest ->
        let chunk_len = min cap (total - offset) in
        let page = Buffer_pool.get t.pool page_no in
        let image = Page.image page in
        let next = match rest with [] -> no_next | next_page :: _ -> next_page in
        Bytes.set_int32_le image 0 (Int32.of_int next);
        Bytes.set_uint16_le image 4 chunk_len;
        Bytes.blit data offset image 6 chunk_len;
        Buffer_pool.mark_dirty t.pool page_no;
        fill (offset + chunk_len) rest
  in
  fill 0 pages;
  List.hd pages

let read_long t first_page =
  let buf = Buffer.create (chunk_capacity t) in
  let rec go page_no =
    let page = Buffer_pool.get t.pool page_no in
    let image = Page.image page in
    let next = Int32.to_int (Bytes.get_int32_le image 0) land 0xffffffff in
    let len = Bytes.get_uint16_le image 4 in
    Buffer.add_subbytes buf image 6 len;
    if next <> no_next then go next
  in
  go first_page;
  Buffer.to_bytes buf

let free_long t first_page =
  let rec go page_no =
    let page = Buffer_pool.get t.pool page_no in
    let image = Page.image page in
    let next = Int32.to_int (Bytes.get_int32_le image 0) land 0xffffffff in
    t.free_pages <- page_no :: t.free_pages;
    if next <> no_next then go next
  in
  go first_page

let write_catalog t data =
  (* Crash safety: write the new catalog chain completely before freeing
     the old one.  Freeing first put the old catalog's pages on the free
     list, so the new chain could overwrite them — a crash mid-write then
     left no intact catalog at all. *)
  let old = t.catalog_page in
  let page = write_long t data in
  t.catalog_page <- Some page;
  journal t (J_catalog_set page);
  match old with Some p -> free_long t p | None -> ()

let read_catalog t = Option.map (read_long t) t.catalog_page

let catalog_page t = t.catalog_page

let max_inline t = Disk.page_size t.disk - 4 (* header *) - 4 (* entry *) - 2

let fresh_segment_page t seg =
  let page_no = alloc_page t in
  let page = Buffer_pool.get t.pool page_no in
  ignore (Page.init (Page.image page) : Page.t);
  Buffer_pool.mark_dirty t.pool page_no;
  seg.pages <- page_no :: seg.pages;
  page_no

let try_insert_on t page_no data =
  let page = Buffer_pool.get t.pool page_no in
  match Page.insert page data with
  | Some slot ->
      Buffer_pool.mark_dirty t.pool page_no;
      Some slot
  | None -> None

let insert t ~segment:seg_id ?near data =
  let seg = segment t seg_id in
  let placed =
    if Bytes.length data > max_inline t then
      Some { segment = seg_id; page = write_long t data; slot = long_slot }
    else
      (* Placement preference: the [near] record's page (clustering with
         the first parent, §2.3), then the segment's most recent pages,
         then a fresh page. *)
      let candidates =
        (match near with
        | Some n when n.segment = seg_id && n.slot <> long_slot -> [ n.page ]
        | Some _ | None -> [])
        @ (match seg.pages with a :: b :: _ -> [ a; b ] | rest -> rest)
      in
      let rec try_pages = function
        | [] -> None
        | page_no :: rest -> (
            match try_insert_on t page_no data with
            | Some slot -> Some { segment = seg_id; page = page_no; slot }
            | None -> try_pages rest)
      in
      (match try_pages candidates with
      | Some rid -> Some rid
      | None ->
          let page_no = fresh_segment_page t seg in
          (match try_insert_on t page_no data with
          | Some slot -> Some { segment = seg_id; page = page_no; slot }
          | None -> None))
  in
  match placed with
  | Some rid ->
      Hashtbl.replace seg.live rid ();
      journal t (J_record_put rid);
      rid
  | None -> invalid_arg "Store.insert: record does not fit a fresh page"

let read t rid =
  let seg = segment t rid.segment in
  if not (Hashtbl.mem seg.live rid) then None
  else if rid.slot = long_slot then Some (read_long t rid.page)
  else
    let page = Buffer_pool.get t.pool rid.page in
    Page.read_slot page rid.slot

let delete t rid =
  let seg = segment t rid.segment in
  if Hashtbl.mem seg.live rid then begin
    Hashtbl.remove seg.live rid;
    journal t (J_record_delete rid);
    if rid.slot = long_slot then free_long t rid.page
    else begin
      let page = Buffer_pool.get t.pool rid.page in
      Page.delete_slot page rid.slot;
      Buffer_pool.mark_dirty t.pool rid.page
    end
  end

let update t rid data =
  let seg = segment t rid.segment in
  if not (Hashtbl.mem seg.live rid) then
    invalid_arg "Store.update: record not live";
  if rid.slot <> long_slot && Bytes.length data <= max_inline t then begin
    let page = Buffer_pool.get t.pool rid.page in
    if Page.update_slot page rid.slot data then begin
      Buffer_pool.mark_dirty t.pool rid.page;
      journal t (J_record_put rid);
      rid
    end
    else begin
      delete t rid;
      insert t ~segment:rid.segment ~near:rid data
    end
  end
  else begin
    delete t rid;
    insert t ~segment:rid.segment data
  end

let iter_segment t seg_id f =
  let seg = segment t seg_id in
  let rids = Hashtbl.fold (fun rid () acc -> rid :: acc) seg.live [] in
  List.iter
    (fun rid -> match read t rid with Some data -> f rid data | None -> ())
    rids

let record_count t seg_id = Hashtbl.length (segment t seg_id).live

let drop_cache t = Buffer_pool.drop_all t.pool

let compact_segment t seg_id =
  let seg = segment t seg_id in
  let rids = Hashtbl.fold (fun rid () acc -> rid :: acc) seg.live [] in
  let short_rids = List.filter (fun rid -> rid.slot <> long_slot) rids in
  let contents =
    List.filter_map
      (fun rid -> Option.map (fun data -> (rid, data)) (read t rid))
      short_rids
  in
  (* Free the old pages wholesale, then refill fresh ones. *)
  let old_pages = seg.pages in
  seg.pages <- [];
  List.iter (fun rid -> Hashtbl.remove seg.live rid) short_rids;
  t.free_pages <- old_pages @ t.free_pages;
  List.map
    (fun (old_rid, data) ->
      let fresh = insert t ~segment:seg_id data in
      (old_rid, fresh))
    contents

let flush t = Buffer_pool.flush t.pool

(* Recovery support ---------------------------------------------------------- *)

(* Log replay rebuilds the directory through these: page contents arrive
   physically (replayed [Disk.write]s), liveness and segment membership
   logically.  None of them touch page images or emit journal ops. *)

let restore_segment t id =
  while t.next_segment <= id do
    let fresh = t.next_segment in
    t.next_segment <- fresh + 1;
    Hashtbl.replace t.segments fresh { pages = []; live = Hashtbl.create 64 }
  done

let restore_record t rid =
  restore_segment t rid.segment;
  let seg = segment t rid.segment in
  Hashtbl.replace seg.live rid ();
  if rid.slot <> long_slot && not (List.mem rid.page seg.pages) then
    seg.pages <- rid.page :: seg.pages

let forget_record t rid =
  match Hashtbl.find_opt t.segments rid.segment with
  | None -> ()
  | Some seg -> Hashtbl.remove seg.live rid

let restore_catalog t page = t.catalog_page <- Some page

(* File serialization -------------------------------------------------------- *)

(* Version 2 appends an adler32 checksum after every page image, so the
   offline checker ({!Orion_analysis.Store_check}) can detect bit-rot
   without a live store.  Version-1 files (no checksums) still load. *)
let file_magic_v1 = "ORION-STORE-1\n"
let file_magic = "ORION-STORE-2\n"

type file_image = {
  fi_page_size : int;
  fi_pages : bytes array;
  fi_checksums : int array option;
  fi_next_segment : int;
  fi_segments : (segment_id * int list * rid list) list;
  fi_free_pages : int list;
  fi_catalog_page : int option;
}

let page_checksum image = Checksum.bytes image

let file_image_of_store t =
  Buffer_pool.flush t.pool;
  let stats = Disk.stats t.disk in
  let fi_pages =
    Array.init stats.Disk.allocated (fun page_no -> Disk.read t.disk page_no)
  in
  let fi_checksums = Some (Array.map page_checksum fi_pages) in
  let fi_segments =
    Hashtbl.fold (fun id seg acc -> (id, seg) :: acc) t.segments []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (id, seg) ->
           let rids = Hashtbl.fold (fun rid () acc -> rid :: acc) seg.live [] in
           (id, seg.pages, rids))
  in
  {
    fi_page_size = Disk.page_size t.disk;
    fi_pages;
    fi_checksums;
    fi_next_segment = t.next_segment;
    fi_segments;
    fi_free_pages = t.free_pages;
    fi_catalog_page = t.catalog_page;
  }

let write_file_image fi path =
  let w = Bytes_rw.Writer.create () in
  let module W = Bytes_rw.Writer in
  let with_checksums = fi.fi_checksums <> None in
  W.string w (if with_checksums then file_magic else file_magic_v1);
  W.int w fi.fi_page_size;
  W.int w (Array.length fi.fi_pages);
  Array.iteri
    (fun page_no image ->
      W.string w (Bytes.to_string image);
      match fi.fi_checksums with
      | Some sums -> W.int w sums.(page_no)
      | None -> ())
    fi.fi_pages;
  W.int w fi.fi_next_segment;
  W.int w (List.length fi.fi_segments);
  List.iter
    (fun (id, pages, rids) ->
      W.int w id;
      W.int w (List.length pages);
      List.iter (W.int w) pages;
      W.int w (List.length rids);
      List.iter
        (fun rid ->
          W.int w rid.segment;
          W.int w rid.page;
          W.int w rid.slot)
        rids)
    fi.fi_segments;
  W.int w (List.length fi.fi_free_pages);
  List.iter (W.int w) fi.fi_free_pages;
  (match fi.fi_catalog_page with
  | None -> W.bool w false
  | Some page ->
      W.bool w true;
      W.int w page);
  (* Write, fsync, rename, fsync the directory: a crash mid-save leaves
     the previous snapshot intact, and a finished save survives power
     loss (the checkpoint/truncate protocol depends on both). *)
  Durable_file.replace path (fun oc ->
      output_bytes oc (W.contents w))

let save_file t path = write_file_image (file_image_of_store t) path

let read_file_image path =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let module R = Bytes_rw.Reader in
  let r = R.of_bytes (Bytes.of_string data) in
  let with_checksums =
    try
      let magic = R.string r in
      if magic = file_magic then true
      else if magic = file_magic_v1 then false
      else failwith "bad magic"
    with _ -> failwith (path ^ ": not an orion store file")
  in
  let fi_page_size = R.int r in
  let allocated = R.int r in
  let sums = if with_checksums then Some (Array.make allocated 0) else None in
  let fi_pages =
    Array.init allocated (fun page_no ->
        let image = Bytes.of_string (R.string r) in
        (match sums with
        | Some sums -> sums.(page_no) <- R.int r
        | None -> ());
        image)
  in
  let fi_next_segment = R.int r in
  let nsegs = R.int r in
  let fi_segments =
    List.init nsegs (fun _ ->
        let id = R.int r in
        let npages = R.int r in
        let pages = List.init npages (fun _ -> R.int r) in
        let nlive = R.int r in
        let rids =
          List.init nlive (fun _ ->
              let segment = R.int r in
              let page = R.int r in
              let slot = R.int r in
              { segment; page; slot })
        in
        (id, pages, rids))
  in
  let nfree = R.int r in
  let fi_free_pages = List.init nfree (fun _ -> R.int r) in
  let fi_catalog_page = if R.bool r then Some (R.int r) else None in
  {
    fi_page_size;
    fi_pages;
    fi_checksums = sums;
    fi_next_segment;
    fi_segments;
    fi_free_pages;
    fi_catalog_page;
  }

let store_of_file_image ?(pool_capacity = 64) fi =
  let t = create ~page_size:fi.fi_page_size ~pool_capacity () in
  Array.iter
    (fun image ->
      let page_no = Disk.alloc t.disk in
      Disk.write t.disk page_no image)
    fi.fi_pages;
  t.next_segment <- fi.fi_next_segment;
  List.iter
    (fun (id, pages, rids) ->
      let live = Hashtbl.create 64 in
      List.iter (fun rid -> Hashtbl.replace live rid ()) rids;
      Hashtbl.replace t.segments id { pages; live })
    fi.fi_segments;
  t.free_pages <- fi.fi_free_pages;
  t.catalog_page <- fi.fi_catalog_page;
  Disk.reset_stats t.disk;
  t

(* Loading tolerates stale checksums (the image that was renamed into
   place is self-consistent or old, never half-written); the offline
   checker is where verification is strict. *)
let load_file ?pool_capacity path =
  store_of_file_image ?pool_capacity (read_file_image path)

let io_stats t = (Disk.stats t.disk, Buffer_pool.stats t.pool)

let reset_io_stats t =
  Disk.reset_stats t.disk;
  Buffer_pool.reset_stats t.pool
