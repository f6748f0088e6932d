(* Little-endian primitives on Buffer (writing) and a bounds-checked
   cursor (reading).  All read failures are Error.Corrupt: by the time
   a cursor exists the bytes came off disk successfully, so any
   shortfall means the file is damaged, not the OS. *)

let put_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Binio.put_u8: out of range";
  Buffer.add_char b (Char.chr v)

let put_u16 b v =
  if v < 0 || v > 0xFFFF then invalid_arg "Binio.put_u16: out of range";
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF))

let put_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Binio.put_u32: out of range";
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let put_u64 b (v : int64) =
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let put_f64 b v = put_u64 b (Int64.bits_of_float v)

(* Unsigned LEB128 over the full 64-bit range. *)
let put_varint b (v : int64) =
  let v = ref v in
  let continue_ = ref true in
  while !continue_ do
    let byte = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char b (Char.chr byte);
      continue_ := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let zigzag (v : int64) = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)
let unzigzag (v : int64) = Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))
let put_svarint b v = put_varint b (zigzag v)

let put_string b s =
  put_varint b (Int64.of_int (String.length s));
  Buffer.add_string b s

type cursor = { data : string; mutable pos : int; name : string }

let cursor ?(name = "buffer") data = { data; pos = 0; name }
let remaining c = String.length c.data - c.pos
let at_end c = remaining c = 0

let truncated c n =
  Error.corruptf "%s: truncated record (need %d more bytes at offset %d of %d)" c.name n c.pos (String.length c.data)

let need c n = if remaining c < n then truncated c n

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = Char.code c.data.[c.pos] lor (Char.code c.data.[c.pos + 1] lsl 8) in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code c.data.[c.pos + i]
  done;
  c.pos <- c.pos + 4;
  !v

let get_u64 c =
  need c 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c.data.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  !v

let get_f64 c = Int64.float_of_bits (get_u64 c)

(* The varint kernel.  Unsigned LEB128 is read straight from the string
   into a native int for its first 8 bytes (7 bits each, 56 bits in
   all), so a value that ends there crosses no call boxed.  A varint
   still running after byte 8 comes back as [lnot lo] — negative, since
   [lo < 2^56] — with the cursor on byte 9, for {!get_varint_tail}.

   With 8 bytes left the kernel loads them as one little-endian word:
   the first byte without a continuation bit ends the varint, and three
   mask-and-shift steps pack the 7-bit groups.  Nearer the end it reads
   byte by byte, and truncation raises {!truncated}'s message with the
   cursor at the end of the data, exactly where a byte-at-a-time
   [get_u8] loop leaves it. *)
let rec head_loop c p acc shift =
  if p >= String.length c.data then begin
    c.pos <- p;
    truncated c 1
  end
  else begin
    (* srclint: allow unsafe-index p < String.length c.data was checked on the line above *)
    let byte = Char.code (String.unsafe_get c.data p) in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then begin
      c.pos <- p + 1;
      acc
    end
    else if shift = 49 then begin
      c.pos <- p + 1;
      lnot acc
    end
    else head_loop c (p + 1) acc (shift + 7)
  end

(* Inlined so the word stays unboxed: without flambda an [int64]
   argument that crosses a call is allocated. *)
let[@inline] compact w =
  let x = Int64.logand w 0x7F7F7F7F7F7F7F7FL in
  let x = Int64.logor (Int64.logand x 0x007F007F007F007FL) (Int64.shift_right_logical (Int64.logand x 0x7F007F007F007F00L) 1) in
  let x = Int64.logor (Int64.logand x 0x00003FFF00003FFFL) (Int64.shift_right_logical (Int64.logand x 0x3FFF00003FFF0000L) 2) in
  Int64.to_int
    (Int64.logor (Int64.logand x 0x000000000FFFFFFFL) (Int64.shift_right_logical (Int64.logand x 0x0FFFFFFF00000000L) 4))

external get64 : string -> int -> int64 = "%caml_string_get64"
external swap64 : int64 -> int64 = "%bswap_int64"

let get_varint_head c =
  let p = c.pos in
  if p + 8 > String.length c.data then head_loop c p 0 0
  else begin
    let w = get64 c.data p in
    let w = if Sys.big_endian then swap64 w else w in
    let stops = Int64.logand (Int64.lognot w) 0x8080808080808080L in
    if stops = 0L then begin
      c.pos <- p + 8;
      lnot (compact w)
    end
    else begin
      (* bytes 0..k, byte k being the first without a continuation bit,
         and their count k + 1 summed into the top byte *)
      let keep = Int64.sub (Int64.shift_left (Int64.logand stops (Int64.neg stops)) 1) 1L in
      let len =
        Int64.to_int
          (Int64.shift_right_logical (Int64.mul (Int64.logand keep 0x0101010101010101L) 0x0101010101010101L) 56)
      in
      c.pos <- p + len;
      compact (Int64.logand w keep)
    end
  end

(* Bytes 9 and 10, checked and in [Int64]: byte 9 fills bits 56–62,
   only the lowest bit of byte 10 survives (bit 63), and a continuation
   bit on byte 10 is an over-long varint. *)
let get_varint_tail c lo =
  let b9 = get_u8 c in
  let v = Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int (b9 land 0x7F)) 56) in
  if b9 land 0x80 = 0 then v
  else begin
    let b10 = get_u8 c in
    if b10 land 0x80 <> 0 then Error.corruptf "%s: varint longer than 10 bytes at offset %d" c.name c.pos;
    Int64.logor v (Int64.shift_left (Int64.of_int b10) 63)
  end

let get_varint c =
  let h = get_varint_head c in
  if h >= 0 then Int64.of_int h else get_varint_tail c (lnot h)

let get_svarint c = unzigzag (get_varint c)

let get_varint_int c =
  let h = get_varint_head c in
  if h >= 0 then h
  else begin
    let v = get_varint_tail c (lnot h) in
    if Int64.compare v (Int64.of_int max_int) > 0 then
      Error.corruptf "%s: varint %Lu does not fit an OCaml int" c.name v;
    Int64.to_int v
  end

let get_string c =
  let len = get_varint_int c in
  need c len;
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

let expect_end c =
  if not (at_end c) then
    Error.corruptf "%s: %d trailing bytes after the last field" c.name (remaining c)
