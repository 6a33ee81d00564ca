(** IPv4 prefixes (CIDR blocks).

    A prefix is a network address plus a length; the host bits are always
    zero (normalised on construction), so structural equality is semantic
    equality. *)

type t

val make : Ipv4.t -> int -> t
(** [make addr len] normalises [addr] by masking to [len] bits. Raises
    [Invalid_argument] if [len] is outside [0, 32]. *)

val v : string -> t
(** [v "10.1.2.0/24"] — shorthand for tests and literals. Raises
    [Invalid_argument] on malformed input. *)

val of_string : string -> t
val of_string_opt : string -> t option

val network : t -> Ipv4.t
val length : t -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
(** Total order: by network address (unsigned), then by length. *)

val equal : t -> t -> bool

val hash : t -> int
(** A stable function of the prefix's bits, [network * 33 + length]. It
    seeds deterministic per-prefix draws (demand, latency), so its values
    never change. It is not a table hash: every /24's low eight bits are
    the same. Key hash tables with {!Tbl}. *)

val mix : int -> int
(** A finalizer that spreads every bit of its argument into the low bits,
    where [Hashtbl] picks buckets. [mix (hash p)] is {!Tbl}'s hash; a
    table keyed on a prefix plus more fields mixes its combined hash the
    same way. *)

module Tbl : Hashtbl.S with type key = t
(** Prefix-keyed hash table hashing through {!mix}. *)

val mem : Ipv4.t -> t -> bool
(** [mem addr t]: does [addr] fall inside [t]? *)

val subsumes : t -> t -> bool
(** [subsumes a b]: is [b] equal to or more specific than [a]? *)

val overlaps : t -> t -> bool

val split : t -> t * t
(** Split into the two half-length-plus-one children. Raises
    [Invalid_argument] on a /32. *)

val subnets : t -> int -> t list
(** [subnets t len] enumerates all sub-prefixes of [t] at length [len]
    (most-significant first). Raises [Invalid_argument] when
    [len < length t] or the expansion exceeds 2^20 prefixes. *)

val size : t -> float
(** Number of addresses covered, as a float (2^(32-len)). *)

val default : t
(** 0.0.0.0/0. *)
