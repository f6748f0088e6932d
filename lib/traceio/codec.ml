(* Array codecs for the sample/event/label streams.

   Floats are serialised losslessly as deltas of consecutive IEEE-754
   bit patterns: neighbouring oscilloscope samples share sign,
   exponent and high mantissa bits, so the bit-pattern difference is a
   small signed integer that zigzag+LEB128 stores in a few bytes —
   while decode reproduces the exact bits, NaN payloads included. *)

let put_floats b xs =
  Binio.put_varint b (Int64.of_int (Array.length xs));
  let prev = ref 0L in
  Array.iter
    (fun x ->
      let bits = Int64.bits_of_float x in
      Binio.put_svarint b (Int64.sub bits !prev);
      prev := bits)
    xs

(* Straight into a fresh unboxed vector.  The running bit pattern is
   element i-1 of the output itself, read back with [bits_of_float],
   and a delta whose varint ends within 8 bytes is unzigzagged
   natively, so no [Int64] crosses a call on the common path and a
   sample costs no allocation.  Longer deltas take the checked tail. *)
let get_floats_fv c =
  let n = Binio.get_varint_int c in
  if n > Binio.remaining c then Error.corruptf "float array claims %d elements but only %d bytes remain" n (Binio.remaining c);
  let v = Mathkit.Fvec.create n in
  let buf = Mathkit.Fvec.buffer v in
  Mathkit.Fvec.check_range buf ~off:0 ~len:n "Codec.get_floats_fv";
  for i = 0 to n - 1 do
    let prev =
      if i = 0 then 0L
      else
        (* srclint: allow unsafe-index i - 1 in [0, n) of a fresh contiguous vector of length n *)
        Int64.bits_of_float (Bigarray.Array1.unsafe_get buf (i - 1))
    in
    let h = Binio.get_varint_head c in
    let delta =
      if h >= 0 then Int64.of_int ((h lsr 1) lxor -(h land 1))
      else Binio.unzigzag (Binio.get_varint_tail c (lnot h))
    in
    let bits = Int64.add prev delta in
    (* srclint: allow unsafe-index i in [0, n) of a fresh contiguous vector of length n *)
    Bigarray.Array1.unsafe_set buf i (Int64.float_of_bits bits)
  done;
  v

let get_floats c = Mathkit.Fvec.to_array (get_floats_fv c)

(* Monotone-ish integer streams (event start indices): delta + zigzag. *)
let put_ints_delta b xs =
  Binio.put_varint b (Int64.of_int (Array.length xs));
  let prev = ref 0L in
  Array.iter
    (fun x ->
      let v = Int64.of_int x in
      Binio.put_svarint b (Int64.sub v !prev);
      prev := v)
    xs

(* One element of an int stream: [prev] plus the next zigzag delta.
   Sums natively while the delta ended within 8 bytes and the sum
   stays in range; anything else takes the checked 64-bit sum, which
   raises when the element does not fit an OCaml int. *)
let checked_sum prev d =
  let v = Int64.add (Int64.of_int prev) d in
  if Int64.compare v (Int64.of_int max_int) > 0 || Int64.compare v (Int64.of_int min_int) < 0 then
    Error.corruptf "int array element %Ld does not fit an OCaml int" v;
  Int64.to_int v

let next_int c prev =
  let h = Binio.get_varint_head c in
  if h >= 0 then begin
    let d = (h lsr 1) lxor -(h land 1) in
    let s = prev + d in
    (* native overflow iff both operands' signs differ from the sum's *)
    if (prev lxor s) land (d lxor s) >= 0 then s else checked_sum prev (Int64.of_int d)
  end
  else checked_sum prev (Binio.unzigzag (Binio.get_varint_tail c (lnot h)))

let get_count c =
  let n = Binio.get_varint_int c in
  if n > Binio.remaining c then Error.corruptf "int array claims %d elements but only %d bytes remain" n (Binio.remaining c);
  n

let get_ints_delta c =
  let n = get_count c in
  let xs = Array.make n 0 in
  for i = 0 to n - 1 do
    xs.(i) <- next_int c (if i = 0 then 0 else xs.(i - 1))
  done;
  xs

(* Validate-and-discard [get_ints_delta]: runs the exact same checks
   (so corrupt streams raise the same errors) but allocates nothing.
   Returns the element count for cross-field consistency checks. *)
let check_ints_delta c =
  let n = get_count c in
  let prev = ref 0 in
  for _ = 1 to n do
    prev := next_int c !prev
  done;
  n

(* Small signed values around zero (noise labels, pcs): plain zigzag. *)
let put_ints b xs =
  Binio.put_varint b (Int64.of_int (Array.length xs));
  Array.iter (fun x -> Binio.put_svarint b (Int64.of_int x)) xs

let get_ints c =
  let n = get_count c in
  Array.init n (fun _ -> next_int c 0)
