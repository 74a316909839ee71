module Inttbl = Tt_util.Inttbl

type user_info = ..

type user_info += No_info

type page = {
  data : Bytes.t;
  tags : Bytes.t;
  mutable mode : int;
  mutable home : int;
  mutable user : user_info;
}

type t = {
  node_id : int;
  capacity : int option;
  pages : page Inttbl.t;
  (* 1-entry MRU translation cache: memory access streams are heavily
     same-page, so the common case skips the table entirely.  [mru_vpage]
     is a sentinel (-1) when invalid; [mru_page] then points at a shared
     dummy page that no vpage can reach.  [mru_found] is [Some mru_page],
     kept so that [find_page] on the MRU page allocates nothing. *)
  mutable mru_vpage : int;
  mutable mru_page : page;
  mutable mru_found : page option;
}

let dummy_page =
  { data = Bytes.empty; tags = Bytes.empty; mode = -1; home = -1;
    user = No_info }

let create ?max_pages ~node () =
  { node_id = node; capacity = max_pages; pages = Inttbl.create 256;
    mru_vpage = -1; mru_page = dummy_page; mru_found = None }

(* [found] is [Some page]: callers pass the option they already hold. *)
let set_mru t ~vpage page found =
  t.mru_vpage <- vpage;
  t.mru_page <- page;
  t.mru_found <- found

let clear_mru t =
  t.mru_vpage <- -1;
  t.mru_page <- dummy_page;
  t.mru_found <- None

let node t = t.node_id

let page_count t = Inttbl.length t.pages

let max_pages t = t.capacity

let is_mapped t ~vpage =
  vpage = t.mru_vpage || Inttbl.mem t.pages vpage

let find_page t ~vpage =
  if vpage = t.mru_vpage then t.mru_found
  else
    match Inttbl.find_opt t.pages vpage with
    | Some p as r ->
        set_mru t ~vpage p r;
        r
    | None -> None

let get_page t ~vpage =
  if vpage = t.mru_vpage then t.mru_page
  else
    match Inttbl.find_opt t.pages vpage with
    | Some p as r ->
        set_mru t ~vpage p r;
        p
    | None ->
        invalid_arg
          (Printf.sprintf "Pagemem: node %d, vpage 0x%x is not mapped"
             t.node_id vpage)

let set_all_tags page tag =
  Bytes.fill page.tags 0 (Bytes.length page.tags) (Char.chr (Tag.to_bits tag))

let map t ~vpage ~home ~mode ~init_tag =
  if is_mapped t ~vpage then
    invalid_arg
      (Printf.sprintf "Pagemem.map: node %d, vpage 0x%x already mapped"
         t.node_id vpage);
  (match t.capacity with
  | Some cap when page_count t >= cap ->
      invalid_arg
        (Printf.sprintf "Pagemem.map: node %d out of physical pages (%d)"
           t.node_id cap)
  | Some _ | None -> ());
  let page =
    { data = Bytes.make Addr.page_size '\000';
      tags = Bytes.make Addr.blocks_per_page '\000';
      mode; home; user = No_info }
  in
  set_all_tags page init_tag;
  Inttbl.replace t.pages vpage page;
  (* a freshly mapped page is about to be accessed: warm the MRU slot *)
  set_mru t ~vpage page (Some page);
  page

let invalidate_translation t = clear_mru t

let translation_cached t ~vpage = vpage = t.mru_vpage

let unmap t ~vpage =
  if not (is_mapped t ~vpage) then
    invalid_arg
      (Printf.sprintf "Pagemem.unmap: node %d, vpage 0x%x not mapped" t.node_id
         vpage);
  if vpage = t.mru_vpage then clear_mru t;
  Inttbl.remove t.pages vpage

let iter_pages t f = Inttbl.iter f t.pages

let page_of_addr t vaddr = get_page t ~vpage:(Addr.page_of vaddr)

let[@inline] page_tag page ~index =
  Tag.of_bits (Char.code (Bytes.get page.tags index))

let get_tag t ~vaddr =
  page_tag (page_of_addr t vaddr) ~index:(Addr.block_index vaddr)

let set_tag t ~vaddr tag =
  let page = page_of_addr t vaddr in
  Bytes.set page.tags (Addr.block_index vaddr) (Char.chr (Tag.to_bits tag))

let check_word_aligned vaddr =
  if not (Addr.is_word_aligned vaddr) then
    invalid_arg (Printf.sprintf "Pagemem: unaligned word access at 0x%x" vaddr)

(* Inlined so that the typed accessors below keep the [int64] unboxed. *)
let[@inline] read_i64 t ~vaddr =
  check_word_aligned vaddr;
  let page = page_of_addr t vaddr in
  Bytes.get_int64_le page.data (Addr.page_offset vaddr)

let[@inline] write_i64 t ~vaddr v =
  check_word_aligned vaddr;
  let page = page_of_addr t vaddr in
  Bytes.set_int64_le page.data (Addr.page_offset vaddr) v

let read_f64 t ~vaddr = Int64.float_of_bits (read_i64 t ~vaddr)

let write_f64 t ~vaddr v = write_i64 t ~vaddr (Int64.bits_of_float v)

let read_int t ~vaddr = Int64.to_int (read_i64 t ~vaddr)

let write_int t ~vaddr v = write_i64 t ~vaddr (Int64.of_int v)

let read_u8 t ~vaddr =
  let page = page_of_addr t vaddr in
  Char.code (Bytes.get page.data (Addr.page_offset vaddr))

let write_u8 t ~vaddr v =
  let page = page_of_addr t vaddr in
  Bytes.set page.data (Addr.page_offset vaddr) (Char.chr (v land 0xff))

let read_block t ~vaddr =
  let base = Addr.block_base vaddr in
  let page = page_of_addr t base in
  Bytes.sub page.data (Addr.page_offset base) Addr.block_size

let read_block_into t ~vaddr ~dst ~dst_pos =
  let base = Addr.block_base vaddr in
  let page = page_of_addr t base in
  Bytes.blit page.data (Addr.page_offset base) dst dst_pos Addr.block_size

let write_block t ~vaddr src =
  if Bytes.length src <> Addr.block_size then
    invalid_arg "Pagemem.write_block: block must be 32 bytes";
  let base = Addr.block_base vaddr in
  let page = page_of_addr t base in
  Bytes.blit src 0 page.data (Addr.page_offset base) Addr.block_size

let write_block_from t ~vaddr ~src ~src_pos =
  let base = Addr.block_base vaddr in
  let page = page_of_addr t base in
  Bytes.blit src src_pos page.data (Addr.page_offset base) Addr.block_size

let read_bytes t ~vaddr ~len =
  let out = Bytes.create len in
  let rec copy pos =
    if pos < len then begin
      let a = vaddr + pos in
      let page = page_of_addr t a in
      let off = Addr.page_offset a in
      let chunk = min (len - pos) (Addr.page_size - off) in
      Bytes.blit page.data off out pos chunk;
      copy (pos + chunk)
    end
  in
  copy 0;
  out

let read_bytes_into t ~vaddr ~dst ~dst_pos ~len =
  let rec copy pos =
    if pos < len then begin
      let a = vaddr + pos in
      let page = page_of_addr t a in
      let off = Addr.page_offset a in
      let chunk = min (len - pos) (Addr.page_size - off) in
      Bytes.blit page.data off dst (dst_pos + pos) chunk;
      copy (pos + chunk)
    end
  in
  copy 0

let write_bytes t ~vaddr src =
  let len = Bytes.length src in
  let rec copy pos =
    if pos < len then begin
      let a = vaddr + pos in
      let page = page_of_addr t a in
      let off = Addr.page_offset a in
      let chunk = min (len - pos) (Addr.page_size - off) in
      Bytes.blit src pos page.data off chunk;
      copy (pos + chunk)
    end
  in
  copy 0
