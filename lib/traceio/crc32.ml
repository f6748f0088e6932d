(* Reflected CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the
   variant of zlib/PNG, chosen so archives can be cross-checked with
   any standard tool.

   Slicing-by-8: eight 256-entry tables, laid end to end in [tables],
   where table k maps a byte to its CRC contribution k bytes ahead of
   the end of an 8-byte block.  One step folds 8 bytes with 8
   independent lookups instead of a chain of 8 dependent ones.  The
   tables are built eagerly at module initialisation: a top-level
   [lazy] forced by two domains at once raises
   [CamlinternalLazy.Undefined] on OCaml 5. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* srclint: allow unsafe-index k * 256 + (i land 0xFF) < 2048 = Array.length tables *)
let[@inline] lookup k i = Array.unsafe_get tables ((k lsl 8) lor (i land 0xFF))

(* srclint: allow unsafe-index callers pass i in the range validated by update *)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let update crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Crc32.update: range out of bounds";
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let lo = !c lxor (byte s p lor (byte s (p + 1) lsl 8) lor (byte s (p + 2) lsl 16) lor (byte s (p + 3) lsl 24)) in
    c :=
      lookup 7 lo
      lxor lookup 6 (lo lsr 8)
      lxor lookup 5 (lo lsr 16)
      lxor lookup 4 (lo lsr 24)
      lxor lookup 3 (byte s (p + 4))
      lxor lookup 2 (byte s (p + 5))
      lxor lookup 1 (byte s (p + 6))
      lxor lookup 0 (byte s (p + 7));
    i := p + 8
  done;
  for j = !i to pos + len - 1 do
    c := lookup 0 (!c lxor byte s j) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest_sub s ~pos ~len = update 0 s pos len
let digest s = update 0 s 0 (String.length s)
