(** Little-endian binary primitives: [Buffer] writers and a
    bounds-checked string cursor for reading.

    Fixed-width fields are little-endian.  Variable-width integers use
    unsigned LEB128 ({!put_varint}); signed values go through zigzag
    ({!put_svarint}) so small magnitudes of either sign stay short.
    Every reader raises {!Error.Corrupt} — never [Invalid_argument] or
    a silent wrap — when the bytes run out or a field is out of
    range. *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_u64 : Buffer.t -> int64 -> unit
val put_f64 : Buffer.t -> float -> unit
(** IEEE-754 bit pattern via {!put_u64}: lossless for every float,
    including NaNs and infinities. *)

val put_varint : Buffer.t -> int64 -> unit
(** Unsigned LEB128 (1–10 bytes; the argument is treated as a 64-bit
    unsigned quantity). *)

val put_svarint : Buffer.t -> int64 -> unit
(** Zigzag + LEB128 for signed values. *)

val put_string : Buffer.t -> string -> unit
(** Length (varint) + raw bytes. *)

val zigzag : int64 -> int64
val unzigzag : int64 -> int64

type cursor
(** Read position over an immutable string. *)

val cursor : ?name:string -> string -> cursor
(** [name] prefixes corruption messages (e.g. the file path). *)

val remaining : cursor -> int
val at_end : cursor -> bool

val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_u64 : cursor -> int64
val get_f64 : cursor -> float
val get_varint : cursor -> int64
val get_svarint : cursor -> int64

val get_varint_head : cursor -> int
(** The allocation-free varint kernel behind every varint reader.
    Returns the value ([>= 0]) when the varint ends within its first
    8 bytes (so the value is below [2^56]).  Otherwise returns
    [lnot lo] ([< 0]), where [lo] holds those 8 bytes' 56 low bits,
    and leaves the cursor on byte 9: finish with {!get_varint_tail}.
    @raise Error.Corrupt on truncation, with {!get_varint}'s message
    and cursor position. *)

val get_varint_tail : cursor -> int -> int64
(** [get_varint_tail c lo] reads bytes 9 and 10 of the varint whose
    first 8 bytes {!get_varint_head} decoded to [lo]; together they
    give exactly {!get_varint}'s value and errors. *)

val get_varint_int : cursor -> int
(** Varint checked to fit a non-negative OCaml [int].
    @raise Error.Corrupt when it does not. *)

val get_string : cursor -> string

val expect_end : cursor -> unit
(** @raise Error.Corrupt when decoded fields did not consume the whole
    payload — trailing garbage means a codec/version mismatch. *)
