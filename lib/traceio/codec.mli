(** Varint + delta codecs for the archive's array streams.

    All three codecs are self-delimiting (length-prefixed) and
    lossless; {!get_floats} reproduces the exact IEEE-754 bit pattern
    written by {!put_floats}.  Sample streams delta-encode consecutive
    bit patterns (neighbouring samples are numerically close, so the
    deltas are short varints); event-start streams delta-encode the
    monotone indices; label streams zigzag each small signed value
    directly. *)

val put_floats : Buffer.t -> float array -> unit

val get_floats_fv : Binio.cursor -> Mathkit.Fvec.t
(** Decode {!put_floats}'s stream straight into a fresh unboxed
    vector, allocating nothing per sample. *)

val get_floats : Binio.cursor -> float array
(** [Fvec.to_array (get_floats_fv c)]. *)

val put_ints_delta : Buffer.t -> int array -> unit
val get_ints_delta : Binio.cursor -> int array

val check_ints_delta : Binio.cursor -> int
(** Decode-and-discard [get_ints_delta]: identical validation and
    cursor advance, nothing allocated; returns the element count. *)

val put_ints : Buffer.t -> int array -> unit
val get_ints : Binio.cursor -> int array
