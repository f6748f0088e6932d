(* Flat row-major Float64 storage over the Fvec buffer type: cell
   (i, j) lives at [data.{(i * c) + j}].  Every access below goes
   through Bigarray's checked [.{}] except the quadratic form's inner
   loop, which validates its ranges once up front. *)

type t = { r : int; c : int; data : Fvec.buffer }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Matrix.create";
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (r * c) in
  Bigarray.Array1.fill data 0.0;
  { r; c; data }

(* [f] is called in row-major order. *)
let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      m.data.{(i * c) + j} <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays a =
  let r = Array.length a in
  let c = if r = 0 then 0 else Array.length a.(0) in
  Array.iter (fun row -> if Array.length row <> c then invalid_arg "Matrix.of_arrays: ragged") a;
  init r c (fun i j -> a.(i).(j))

let rows m = m.r
let cols m = m.c

(* With [j] in [0, c), the flat index [(i * c) + j] is inside the
   buffer exactly when [i] is in [0, r), so the checked Bigarray access
   settles the row bound. *)
let get m i j =
  if j < 0 || j >= m.c then invalid_arg "Matrix.get: column out of bounds";
  m.data.{(i * m.c) + j}

let set m i j v =
  if j < 0 || j >= m.c then invalid_arg "Matrix.set: column out of bounds";
  m.data.{(i * m.c) + j} <- v

let to_arrays m = Array.init m.r (fun i -> Array.init m.c (fun j -> get m i j))

let map f m =
  let out = create m.r m.c in
  for k = 0 to (m.r * m.c) - 1 do
    out.data.{k} <- f m.data.{k}
  done;
  out

let copy m = map Fun.id m
let transpose m = init m.c m.r (fun i j -> get m j i)

let check_same m n = if m.r <> n.r || m.c <> n.c then invalid_arg "Matrix: shape mismatch"

let add m n =
  check_same m n;
  let out = create m.r m.c in
  for k = 0 to (m.r * m.c) - 1 do
    out.data.{k} <- m.data.{k} +. n.data.{k}
  done;
  out

let scale s m = map (fun x -> s *. x) m

let mul m n =
  if m.c <> n.r then invalid_arg "Matrix.mul: inner dimension mismatch";
  let out = create m.r n.c in
  for i = 0 to m.r - 1 do
    let oi = i * n.c in
    for k = 0 to m.c - 1 do
      let mik = m.data.{(i * m.c) + k} in
      if mik <> 0.0 then begin
        let nk = k * n.c in
        for j = 0 to n.c - 1 do
          out.data.{oi + j} <- out.data.{oi + j} +. (mik *. n.data.{nk + j})
        done
      end
    done
  done;
  out

let mul_vec m v =
  if m.c <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.r (fun i ->
      let acc = ref 0.0 in
      let base = i * m.c in
      for j = 0 to m.c - 1 do
        acc := !acc +. (m.data.{base + j} *. v.(j))
      done;
      !acc)

let dot u v =
  if Array.length u <> Array.length v then invalid_arg "Matrix.dot: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let axpy a x y =
  if Array.length x <> Array.length y then invalid_arg "Matrix.axpy: length mismatch";
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let col m j = Array.init m.r (fun i -> get m i j)

let trace m =
  let n = min m.r m.c in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. m.data.{(i * m.c) + i}
  done;
  !acc

let frobenius m =
  let acc = ref 0.0 in
  for k = 0 to (m.r * m.c) - 1 do
    acc := !acc +. (m.data.{k} *. m.data.{k})
  done;
  sqrt !acc

let max_abs_diff m n =
  check_same m n;
  let acc = ref 0.0 in
  for k = 0 to (m.r * m.c) - 1 do
    acc := Float.max !acc (Float.abs (m.data.{k} -. n.data.{k}))
  done;
  !acc

(* d^T m d, fused but in the exact accumulation order of
   [dot d (mul_vec m d)]: row sums j-ascending, outer sum
   i-ascending.  This is the Mahalanobis inner loop. *)
let quadratic_form m d =
  if m.r <> m.c then invalid_arg "Matrix.quadratic_form: matrix not square";
  if Fvec.length d <> m.c then invalid_arg "Matrix.quadratic_form: dimension mismatch";
  let n = m.c in
  let dbuf = Fvec.buffer d and doff = Fvec.offset d in
  Fvec.check_range dbuf ~off:doff ~len:n "Matrix.quadratic_form";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    let base = i * n in
    for j = 0 to n - 1 do
      (* srclint: allow unsafe-index both ranges validated by the dimension checks and check_range above *)
      acc := !acc +. (Bigarray.Array1.unsafe_get m.data (base + j) *. Bigarray.Array1.unsafe_get dbuf (doff + j))
    done;
    (* srclint: allow unsafe-index i stays inside the range validated above *)
    total := !total +. (Bigarray.Array1.unsafe_get dbuf (doff + i) *. !acc)
  done;
  !total
