(** Compressed patricia tries keyed by IPv4 prefix.

    The routing tables (Adj-RIB-In, Loc-RIB, traffic maps) all need exact
    prefix lookup plus longest-prefix match; this persistent trie provides
    both. Internally each prefix packs into one int
    ([(network lsl 6) lor length]) and the trie is a big-endian patricia
    tree over those keys: one node per binding plus one per divergence,
    so million-entry RIBs fit in a couple of machine words per route and
    lookups touch only the distinguishing bits. Persistence keeps RIB
    snapshots for the collector free — the controller can hold an old
    version while the speaker keeps updating — and lets delta snapshots
    share all unchanged structure with their parent. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** Insert or replace the binding for the exact prefix. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove the exact binding; the trie is unchanged if absent. *)

val find : Prefix.t -> 'a t -> 'a option
(** Exact-prefix lookup. *)

val mem : Prefix.t -> 'a t -> bool

val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t
(** Insert/modify/delete through one function, as [Map.update], in one
    descent of the key's path. When [f] answers with the binding it was
    given (physically the same value), or [None] for an absent key, the
    input trie itself is returned: nothing is copied. *)

val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** The most-specific prefix containing the address, if any. *)

val matches : Ipv4.t -> 'a t -> (Prefix.t * 'a) list
(** All prefixes containing the address, most specific first. *)

val covers : Prefix.t -> 'a t -> (Prefix.t * 'a) list
(** All bindings whose prefix is equal to or less specific than the
    argument, most specific first — [length p + 1] exact probes. *)

val covered : Prefix.t -> 'a t -> (Prefix.t * 'a) list
(** All bindings whose prefix is equal to or more specific than the
    argument, in ascending prefix order. *)

val cardinal : 'a t -> int
val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Ascending prefix order. *)

val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
val map : ('a -> 'b) -> 'a t -> 'b t
val filter : (Prefix.t -> 'a -> bool) -> 'a t -> 'a t
val to_list : 'a t -> (Prefix.t * 'a) list
val of_list : (Prefix.t * 'a) list -> 'a t
val keys : 'a t -> Prefix.t list
val union : ('a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t
(** [union f a b] keeps all bindings, resolving duplicates with [f]. *)

val fold2 :
  eq:('a -> 'a -> bool) ->
  (Prefix.t -> 'a option -> 'a option -> 'acc -> 'acc) ->
  'a t ->
  'a t ->
  'acc ->
  'acc
(** [fold2 ~eq f a b acc] folds over every prefix whose binding differs
    between [a] and [b] — present only in [a] ([f p (Some v) None]),
    only in [b] ([f p None (Some v)]), or in both with [eq] false.
    Physically-equal subtrees are pruned without descent, so on two
    snapshots that share structure the cost is proportional to the
    difference, not the size. Visit order is unspecified. *)
