(** Per-prefix rate estimation: sFlow samples in, smoothed bps out.

    Maintains one EWMA per prefix. Prefixes that produced no samples in
    an interval must be decayed explicitly ({!tick_absent}) or stale
    estimates would pin traffic to prefixes that went quiet. *)

type t

val create : Sflow.config -> t
(** Each EWMA weighs a new interval by 0.3: it reacts within a few 30 s
    intervals without following single-interval sampling noise. The
    first interval a prefix is seen seeds its estimate. *)

val observe : t -> Sflow.sample list -> unit
(** Fold one interval's samples in (absent prefixes are untouched —
    combine with {!tick_absent}). *)

val tick_absent : t -> unit
(** Decay every tracked prefix that was not updated since the last call:
    they observe a zero-rate interval. Call once per interval, after
    {!observe}. *)

val estimate_bps : t -> Ef_bgp.Prefix.t -> float
(** 0 for unknown prefixes. *)

val snapshot : t -> (Ef_bgp.Prefix.t * float) list
(** All tracked prefixes with estimates, descending by rate. *)

val tracked : t -> int
val drop_below : t -> float -> unit
(** Forget prefixes whose estimate fell under the floor (keeps the table
    from accumulating dead prefixes across a day). *)
