(* The on-disk container: a versioned header, a section table, and
   page-aligned sections, so a graph (or a built index) opens in O(1)
   by memory-mapping its flat int sections instead of parsing text.

   Layout (all fixed-width fields little-endian):

     offset  0   magic            8 bytes  "dkxcntr1" (name + format version)
     offset  8   kind             u32      1 = graph, 2 = index
     offset 12   word_bytes       u32      8 (native int width)
     offset 16   endian marker    u32      0x01020304 as written by this host
     offset 20   n_sections       u32
     offset 24   file_length      u64      total bytes, must equal actual size
     offset 32   header CRC-32    u32      over bytes [0, 40 + 32 n) with this
                                           field zeroed
     offset 36   pad              u32
     offset 40   section table    n × 32 bytes
     ...         sections         each starting on a 4096 boundary

   Section-table entry: tag (8 bytes, NUL-padded), offset u64,
   length u64 (unpadded bytes), CRC-32 u32, pad u32.

   Opening validates the header, the header/table CRC, and every
   section extent against the real file length — O(1) work that
   catches truncation and header corruption.  Section bodies carry
   their own CRCs, checked only on demand ([~verify]), because a full
   scan of a multi-GB file defeats the point of mapping it.

   Int sections are written as the little-endian native words of the
   OCaml ints, which is exactly the in-memory representation of a
   bigarray of kind [int] on a little-endian 64-bit host — so a
   mapped section IS the Int_vec, no translation.  The 4096 alignment
   matches the mmap offset granularity on every platform we target. *)

type kind = Graph | Index

type error =
  | Bad_magic
  | Bad_kind of { expected : int; got : int }
  | Bad_word_size of int
  | Bad_endianness
  | Truncated of string
  | Crc_mismatch of string
  | Missing_section of string
  | Malformed of string

exception Error of error

let pp_kind ppf = function
  | Graph -> Format.pp_print_string ppf "graph"
  | Index -> Format.pp_print_string ppf "index"

let pp_error ppf = function
  | Bad_magic -> Format.pp_print_string ppf "not a dkindex container"
  | Bad_kind { expected; got } ->
    Format.fprintf ppf "container kind %d where %d expected" got expected
  | Bad_word_size w -> Format.fprintf ppf "container word size %d (want 8)" w
  | Bad_endianness -> Format.pp_print_string ppf "container byte order mismatch"
  | Truncated what -> Format.fprintf ppf "container truncated (%s)" what
  | Crc_mismatch what -> Format.fprintf ppf "container CRC mismatch (%s)" what
  | Missing_section tag -> Format.fprintf ppf "container section %S missing" tag
  | Malformed what -> Format.fprintf ppf "malformed container (%s)" what

let error e = raise (Error e)
let magic = "dkxcntr1"
let endian_marker = 0x01020304
let page = 4096
let header_prefix = 40
let entry_bytes = 32
let kind_code = function Graph -> 1 | Index -> 2

let align_page n = (n + page - 1) / page * page

(* ------------------------------------------------------------------ *)
(* Writer *)

module Writer = struct
  type section = { tag : string; start : int; mutable len : int; mutable crc : int }

  type entry = { e_tag : string; e_off : int; e_len : int; e_crc : int }

  type t = {
    fd : Unix.file_descr;
    tmp : string;
    path : string;
    kind : kind;
    header_size : int;
    n_sections : int;
    buf : Bytes.t;
    mutable fill : int;
    mutable pos : int;  (* file offset of buf.[0] *)
    mutable cur : section option;
    mutable entries : entry list;  (* reversed *)
    mutable closed : bool;
  }

  let buf_cap = 1 lsl 18

  let create path ~kind ~n_sections =
    let header_size = align_page (header_prefix + (n_sections * entry_bytes)) in
    let tmp = path ^ ".tmp" in
    let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    ignore (Unix.lseek fd header_size SEEK_SET);
    {
      fd;
      tmp;
      path;
      kind;
      header_size;
      n_sections;
      buf = Bytes.create buf_cap;
      fill = 0;
      pos = header_size;
      cur = None;
      entries = [];
      closed = false;
    }

  let really_write fd buf off len =
    let w = ref off and rem = ref len in
    while !rem > 0 do
      let k = Unix.write fd buf !w !rem in
      w := !w + k;
      rem := !rem - k
    done

  let flush w =
    if w.fill > 0 then begin
      (match w.cur with
      | Some s ->
        s.crc <- Crc32.update s.crc w.buf 0 w.fill;
        s.len <- s.len + w.fill
      | None -> ());
      really_write w.fd w.buf 0 w.fill;
      w.pos <- w.pos + w.fill;
      w.fill <- 0
    end

  let write_raw w src off len =
    let off = ref off and rem = ref len in
    while !rem > 0 do
      if w.fill = buf_cap then flush w;
      let k = min !rem (buf_cap - w.fill) in
      Bytes.blit src !off w.buf w.fill k;
      w.fill <- w.fill + k;
      off := !off + k;
      rem := !rem - k
    done

  let write_int w x =
    if w.fill + 8 > buf_cap then flush w;
    Bytes.set_int64_le w.buf w.fill (Int64.of_int x);
    w.fill <- w.fill + 8

  let write_vec w v =
    for i = 0 to Int_vec.length v - 1 do
      write_int w (Int_vec.unsafe_get v i)
    done

  let write_string w s = write_raw w (Bytes.unsafe_of_string s) 0 (String.length s)

  let begin_section w tag =
    if w.cur <> None then invalid_arg "Container.Writer: section already open";
    if String.length tag > 8 then invalid_arg "Container.Writer: tag too long";
    flush w;
    w.cur <- Some { tag; start = w.pos; len = 0; crc = 0 }

  let end_section w =
    match w.cur with
    | None -> invalid_arg "Container.Writer: no open section"
    | Some s ->
      flush w;
      w.cur <- None;
      w.entries <-
        { e_tag = s.tag; e_off = s.start; e_len = s.len; e_crc = s.crc } :: w.entries;
      (* Pad to the next page so the following section is mappable. *)
      let pad = (page - (w.pos mod page)) mod page in
      if pad > 0 then begin
        Bytes.fill w.buf 0 pad '\000';
        w.fill <- pad;
        flush w
      end

  let int_section w tag v =
    begin_section w tag;
    write_vec w v;
    end_section w

  let set_u32 b off x = Bytes.set_int32_le b off (Int32.of_int x)

  let header_bytes w ~file_length =
    let entries = List.rev w.entries in
    let b = Bytes.make w.header_size '\000' in
    Bytes.blit_string magic 0 b 0 8;
    set_u32 b 8 (kind_code w.kind);
    set_u32 b 12 8;
    set_u32 b 16 endian_marker;
    set_u32 b 20 w.n_sections;
    Bytes.set_int64_le b 24 (Int64.of_int file_length);
    List.iteri
      (fun i e ->
        let off = header_prefix + (i * entry_bytes) in
        Bytes.blit_string e.e_tag 0 b off (String.length e.e_tag);
        Bytes.set_int64_le b (off + 8) (Int64.of_int e.e_off);
        Bytes.set_int64_le b (off + 16) (Int64.of_int e.e_len);
        set_u32 b (off + 24) e.e_crc)
      entries;
    let crc =
      Crc32.update 0 b 0 (header_prefix + (w.n_sections * entry_bytes))
    in
    set_u32 b 32 crc;
    b

  let finish w =
    if w.closed then invalid_arg "Container.Writer: already finished";
    if w.cur <> None then invalid_arg "Container.Writer: unfinished section";
    flush w;
    let n = List.length w.entries in
    if n <> w.n_sections then
      invalid_arg
        (Printf.sprintf "Container.Writer: %d sections written, %d declared" n
           w.n_sections);
    let b = header_bytes w ~file_length:w.pos in
    ignore (Unix.lseek w.fd 0 SEEK_SET);
    really_write w.fd b 0 w.header_size;
    Unix.fsync w.fd;
    Unix.close w.fd;
    w.closed <- true;
    Unix.rename w.tmp w.path

  let abort w =
    if not w.closed then begin
      (try Unix.close w.fd with Unix.Unix_error _ -> ());
      (try Unix.unlink w.tmp with Unix.Unix_error _ -> ());
      w.closed <- true
    end
end

(* ------------------------------------------------------------------ *)
(* Shared section encoders — one code path for the materialized save
   and the streaming builder, so equal content means equal bytes. *)

let graph_n_sections = 8

let write_pool w pool =
  Writer.begin_section w "pool";
  let n = Label.Pool.count pool in
  Writer.write_int w n;
  for code = 0 to n - 1 do
    let name = Label.Pool.name pool (Label.of_int code) in
    Writer.write_int w (String.length name);
    Writer.write_string w name
  done;
  Writer.end_section w

let write_values w values =
  Writer.begin_section w "values";
  Writer.write_int w (Payloads.length values);
  Payloads.iter values (fun u payload ->
      Writer.write_int w u;
      Writer.write_int w (String.length payload);
      Writer.write_string w payload);
  Writer.end_section w

let write_meta w ints =
  Writer.begin_section w "meta";
  List.iter (Writer.write_int w) ints;
  Writer.end_section w

let write_graph_sections w g =
  let coff, carr = Data_graph.csr_children g in
  let poff, parr = Data_graph.csr_parents g in
  let values = Data_graph.payloads g in
  write_pool w (Data_graph.pool g);
  Writer.int_section w "labels" (Data_graph.label_codes g);
  Writer.int_section w "carr" carr;
  Writer.int_section w "coff" coff;
  Writer.int_section w "parr" parr;
  Writer.int_section w "poff" poff;
  write_values w values;
  write_meta w [ Data_graph.n_nodes g; Data_graph.n_edges g; Payloads.length values ]

let save_graph g path =
  let w = Writer.create path ~kind:Graph ~n_sections:graph_n_sections in
  (try write_graph_sections w g
   with e ->
     Writer.abort w;
     raise e);
  Writer.finish w

(* ------------------------------------------------------------------ *)
(* Reader *)

type section = { s_off : int; s_len : int; s_crc : int }

type reader = { r_sections : (string * section) list }

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off)

(* Pluggable read primitive: dkindex_server's fault-injection tests
   redirect this at [Faults.read] (this library cannot depend on that
   one), so the CRC checks below can be exercised against short reads,
   EINTR storms, and flipped bits.  Production never touches it. *)
let read_injector : (Unix.file_descr -> bytes -> int -> int -> int) ref = ref Unix.read

let really_read fd buf off len =
  let r = ref off and rem = ref len in
  while !rem > 0 do
    match !read_injector fd buf !r !rem with
    | 0 -> error (Truncated "unexpected end of file")
    | k ->
      r := !r + k;
      rem := !rem - k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let tag_of_entry b off =
  let len = ref 0 in
  while !len < 8 && Bytes.get b (off + !len) <> '\000' do
    incr len
  done;
  Bytes.sub_string b off !len

(* Validate everything O(1)-checkable: magic, kind, word size, byte
   order, header/table CRC, declared vs real file length, and every
   section extent.  Returns the parsed section table. *)
let read_header fd ~kind =
  let file_len = (Unix.fstat fd).st_size in
  if file_len < header_prefix then error (Truncated "header");
  let prefix = Bytes.create header_prefix in
  really_read fd prefix 0 header_prefix;
  if Bytes.sub_string prefix 0 8 <> magic then error Bad_magic;
  let k = get_u32 prefix 8 in
  if k <> kind_code kind then error (Bad_kind { expected = kind_code kind; got = k });
  let word = get_u32 prefix 12 in
  if word <> 8 then error (Bad_word_size word);
  if get_u32 prefix 16 <> endian_marker then error Bad_endianness;
  let n_sections = get_u32 prefix 20 in
  if n_sections > 1024 then error (Malformed "section count");
  let header_len = header_prefix + (n_sections * entry_bytes) in
  if file_len < header_len then error (Truncated "section table");
  if get_u64 prefix 24 <> file_len then error (Truncated "file length");
  let header = Bytes.create header_len in
  Bytes.blit prefix 0 header 0 header_prefix;
  really_read fd header header_prefix (header_len - header_prefix);
  let declared_crc = get_u32 header 32 in
  Bytes.set_int32_le header 32 0l;
  if Crc32.update 0 header 0 header_len <> declared_crc then
    error (Crc_mismatch "header");
  List.init n_sections (fun i ->
      let off = header_prefix + (i * entry_bytes) in
      let tag = tag_of_entry header off in
      let s_off = get_u64 header (off + 8) in
      let s_len = get_u64 header (off + 16) in
      let s_crc = get_u32 header (off + 24) in
      if s_off < header_len || s_len < 0 || s_off + s_len > file_len then
        error (Truncated tag);
      if s_off mod page <> 0 then error (Malformed (tag ^ " alignment"));
      (tag, { s_off; s_len; s_crc }))

let find_section r tag =
  match List.assoc_opt tag r.r_sections with
  | Some s -> s
  | None -> error (Missing_section tag)

let verify_section fd s tag =
  ignore (Unix.lseek fd s.s_off SEEK_SET);
  let chunk = Bytes.create (1 lsl 18) in
  let crc = ref 0 and rem = ref s.s_len in
  while !rem > 0 do
    let k = min !rem (Bytes.length chunk) in
    really_read fd chunk 0 k;
    crc := Crc32.update !crc chunk 0 k;
    rem := !rem - k
  done;
  if !crc <> s.s_crc then error (Crc_mismatch tag)

let map_int_section fd s tag : Int_vec.t =
  if s.s_len mod 8 <> 0 then error (Malformed (tag ^ " length"));
  let n = s.s_len / 8 in
  if n = 0 then Int_vec.create 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int s.s_off) Bigarray.int Bigarray.c_layout
         false [| n |])

let read_bytes_section fd s =
  let b = Bytes.create s.s_len in
  ignore (Unix.lseek fd s.s_off SEEK_SET);
  really_read fd b 0 s.s_len;
  b

(* Cursor-style decoding of the byte sections (pool, values). *)
let decode_pool b =
  let pos = ref 0 in
  let len = Bytes.length b in
  let next_int () =
    if !pos + 8 > len then error (Malformed "pool");
    let x = get_u64 b !pos in
    pos := !pos + 8;
    x
  in
  let n = next_int () in
  if n < 1 then error (Malformed "pool count");
  let pool = Label.Pool.create () in
  for code = 0 to n - 1 do
    let slen = next_int () in
    if slen < 0 || !pos + slen > len then error (Malformed "pool name");
    let name = Bytes.sub_string b !pos slen in
    pos := !pos + slen;
    if Label.to_int (Label.Pool.intern pool name) <> code then
      error (Malformed "pool order")
  done;
  pool

let decode_values b =
  let pos = ref 0 in
  let len = Bytes.length b in
  let next_int () =
    if !pos + 8 > len then error (Malformed "values");
    let x = get_u64 b !pos in
    pos := !pos + 8;
    x
  in
  let n = next_int () in
  if n < 0 then error (Malformed "values count");
  (* Filled in file order: a file with out-of-order or repeated nodes
     still loads, the first payload per node winning. *)
  let values = Payloads.acc () in
  for _ = 1 to n do
    let u = next_int () in
    let slen = next_int () in
    if slen < 0 || !pos + slen > len then error (Malformed "value payload");
    Payloads.add values u (Bytes.sub_string b !pos slen);
    pos := !pos + slen
  done;
  (n, Payloads.freeze values)

let with_reader path ~kind f =
  let fd =
    try Unix.openfile path [ O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      error (Truncated (path ^ ": " ^ Unix.error_message e))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let sections = read_header fd ~kind in
      f fd { r_sections = sections })

(* The graph sections, shared by [open_graph] and the index reader. *)
let graph_of_reader fd r =
  let sec tag = find_section r tag in
  let pool = decode_pool (read_bytes_section fd (sec "pool")) in
  let labels = map_int_section fd (sec "labels") "labels" in
  let carr = map_int_section fd (sec "carr") "carr" in
  let coff = map_int_section fd (sec "coff") "coff" in
  let parr = map_int_section fd (sec "parr") "parr" in
  let poff = map_int_section fd (sec "poff") "poff" in
  let n_listed, values = decode_values (read_bytes_section fd (sec "values")) in
  let meta = map_int_section fd (sec "meta") "meta" in
  if Int_vec.length meta < 3 then error (Malformed "meta");
  let n = Int_vec.get meta 0 and m = Int_vec.get meta 1 and nv = Int_vec.get meta 2 in
  if Int_vec.length labels <> n then error (Malformed "node count");
  if
    Int_vec.length coff <> n + 1
    || Int_vec.length poff <> n + 1
    || Int_vec.length carr <> m
    || Int_vec.length parr <> m
    || (n > 0 && (Int_vec.get coff n <> m || Int_vec.get poff n <> m))
  then error (Malformed "csr shape");
  if n_listed <> nv then error (Malformed "value count");
  (* Value nodes out of range surface as [of_csr]'s Invalid_argument. *)
  try
    Data_graph.of_csr ~values ~pool ~label_codes:labels ~children:(coff, carr)
      ~parents:(poff, parr) ()
  with Invalid_argument msg -> error (Malformed msg)

let verify_all fd r = List.iter (fun (tag, s) -> verify_section fd s tag) r.r_sections

let open_graph ?(verify = false) path =
  with_reader path ~kind:Graph (fun fd r ->
      if verify then verify_all fd r;
      graph_of_reader fd r)

(* Generic access for non-graph kinds: the index serializer reads its
   extra sections through this, sharing the header validation, the
   mapping machinery and the embedded-graph decoder. *)
module Reader = struct
  type t = { fd : Unix.file_descr; r : reader }

  let with_file ?(verify = false) ~kind path f =
    with_reader path ~kind (fun fd r ->
        if verify then verify_all fd r;
        f { fd; r })

  let graph h = graph_of_reader h.fd h.r
  let int_vec h tag = map_int_section h.fd (find_section h.r tag) tag
end

let probe path =
  match Unix.openfile path [ O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let b = Bytes.create 12 in
        match really_read fd b 0 12 with
        | exception Error _ -> None
        | () ->
          if Bytes.sub_string b 0 8 <> magic then None
          else
            (match get_u32 b 8 with
            | 1 -> Some Graph
            | 2 -> Some Index
            | _ -> None))
